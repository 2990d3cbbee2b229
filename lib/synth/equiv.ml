type mismatch = {
  cycle : int;
  output : string;
  got : bool;
  expected : bool;
}

let mismatch_to_string m =
  Printf.sprintf "cycle %d, output %s: %b vs %b" m.cycle m.output m.got
    m.expected

type cex = {
  tape : (string * bool) list array;
  first : mismatch;
}

type verdict = Proved | Refuted of cex | Undecided of string

type engine =
  | Sim of { seed : int }
  | Sat of { frames : int }
  | Bdd of { max_vars : int }

(* Stimulus per simulation check: [runs] packed passes of [cycles] cycles. *)
let cycles = 64
let runs = 8

(* The input names both graphs share, sorted. *)
let check_interfaces a b =
  let names g =
    ( List.sort Stdlib.compare (List.map (Aig.pi_name g) (Aig.pis g)),
      List.sort Stdlib.compare (List.map fst (Aig.pos g)) )
  in
  let pi_a, po_a = names a and pi_b, po_b = names b in
  if pi_a <> pi_b then invalid_arg "Equiv.run: input interfaces differ";
  if po_a <> po_b then invalid_arg "Equiv.run: output interfaces differ";
  pi_a

(* Positions sorted by (name, position): aligns the k-th occurrence of
   every output name across the two sides in O(n log n) once, instead of
   a List.assoc scan per output per cycle. *)
let sorted_perm names =
  let perm = Array.init (Array.length names) Fun.id in
  Array.sort
    (fun i j ->
      match String.compare names.(i) names.(j) with
      | 0 -> compare i j
      | c -> c)
    perm;
  perm

(* Both compiled sides of one check: a simulator each, the PI slots of the
   shared sorted input names, and the outputs aligned by [sorted_perm] —
   the k-th occurrence of every name on each side, in sorted order. *)
type pair = {
  sa : Aig.Compiled.sim;
  sb : Aig.Compiled.sim;
  slots_a : int array;
  slots_b : int array;
  po_names : string array;  (* [a]'s output names, by PO slot *)
  pa : int array;
  pb : int array;
}

let pair pi_a a b =
  let ca = Aig.Compiled.compile a and cb = Aig.Compiled.compile b in
  let slots c =
    Array.of_list
      (List.map (fun name -> Option.get (Aig.Compiled.pi_index c name)) pi_a)
  in
  let po_names c =
    Array.init (Aig.Compiled.num_pos c) (Aig.Compiled.po_name c)
  in
  let po_names_a = po_names ca in
  {
    sa = Aig.Compiled.sim ca;
    sb = Aig.Compiled.sim cb;
    slots_a = slots ca;
    slots_b = slots cb;
    po_names = po_names_a;
    pa = sorted_perm po_names_a;
    pb = sorted_perm (po_names cb);
  }

(* The one lockstep driver: both sides from reset, input [i] of cycle [c]
   driven with [word c i], for at most [cycles] cycles. Returns the first
   cycle, and the first aligned output [j] in it, at which any lane
   differs, with the differing lanes; both simulators stay at that cycle. *)
let first_divergence p ~cycles ~word =
  Aig.Compiled.reset p.sa;
  Aig.Compiled.reset p.sb;
  let rec run c =
    if c >= cycles then None
    else begin
      for i = 0 to Array.length p.slots_a - 1 do
        let w = word c i in
        Aig.Compiled.set_pi p.sa p.slots_a.(i) w;
        Aig.Compiled.set_pi p.sb p.slots_b.(i) w
      done;
      Aig.Compiled.step p.sa;
      Aig.Compiled.step p.sb;
      scan c 0
    end
  and scan c j =
    if j >= Array.length p.pa then run (c + 1)
    else
      let diff =
        Aig.Compiled.po p.sa p.pa.(j) lxor Aig.Compiled.po p.sb p.pb.(j)
      in
      if diff <> 0 then Some (c, j, diff) else scan c (j + 1)
  in
  run 0

(* A tape through the driver, each row replicated to every lane; every
   row names the shared sorted inputs in order, so row position [i] is
   input [i]. The counterexample keeps the tape up to its mismatch cycle
   (shared, not copied, when it ends there). A witness that does not
   reproduce means an engine is unsound — reported loudly, not masked;
   [Refuted] always carries a concrete simulation mismatch. *)
let replay ~unsound p (tape : (string * bool) list array) =
  let rows =
    Array.map
      (fun row ->
        Array.of_list (List.map (fun (_, v) -> Aig.Compiled.replicate v) row))
      tape
  in
  let word c i = rows.(c).(i) in
  match first_divergence p ~cycles:(Array.length tape) ~word with
  | None -> failwith ("Equiv.run: " ^ unsound)
  | Some (cycle, j, _) ->
    let bit s k = Aig.Compiled.po s k land 1 = 1 in
    let n = cycle + 1 in
    {
      tape = (if n = Array.length tape then tape else Array.sub tape 0 n);
      first =
        {
          cycle;
          output = p.po_names.(p.pa.(j));
          got = bit p.sa p.pa.(j);
          expected = bit p.sb p.pb.(j);
        };
    }

let replay_model pi_a a b tape =
  replay (pair pi_a a b) tape
    ~unsound:
      "SAT counterexample failed to replay through the scalar simulator \
       (encoder soundness bug)"

(* [runs] passes of the driver with random words, recorded as they are
   driven. On a divergence the lowest differing lane's bits of those
   words are its scalar tape, replayed on the same pair so the reported
   counterexample is exact. *)
let sim ~seed pi_a a b =
  let p = pair pi_a a b in
  let words = Array.make_matrix cycles (List.length pi_a) 0 in
  let rec run_i i =
    if i >= runs then
      Undecided
        (Printf.sprintf
           "simulation: no mismatch in %d runs x %d lanes x %d cycles (not a proof)"
           runs Aig.Compiled.lanes cycles)
    else
      let st = Random.State.make [| seed; i |] in
      let word c i =
        words.(c).(i) <- Aig.Compiled.random_word st;
        words.(c).(i)
      in
      match first_divergence p ~cycles ~word with
      | None -> run_i (i + 1)
      | Some (cycle, _, diff) ->
        let lane = Aig.Compiled.ctz diff in
        let tape =
          Array.init (cycle + 1) (fun c ->
              List.mapi (fun i name -> (name, words.(c).(i) lsr lane land 1 = 1))
                pi_a)
        in
        Refuted
          (replay p tape
             ~unsound:
               "packed simulation mismatch failed to replay through the \
                scalar simulator (kernel bug)")
  in
  run_i 0

(* ------------------------------------------------------------ SAT engine *)

let zero_stats : Sat.Solver.stats =
  {
    solves = 0;
    decisions = 0;
    conflicts = 0;
    propagations = 0;
    learned = 0;
    learned_lits = 0;
    restarts = 0;
    max_vars = 0;
  }

let add_stats (x : Sat.Solver.stats) (y : Sat.Solver.stats) : Sat.Solver.stats =
  {
    solves = x.solves + y.solves;
    decisions = x.decisions + y.decisions;
    conflicts = x.conflicts + y.conflicts;
    propagations = x.propagations + y.propagations;
    learned = x.learned + y.learned;
    learned_lits = x.learned_lits + y.learned_lits;
    restarts = x.restarts + y.restarts;
    max_vars = max x.max_vars y.max_vars;
  }

(* Aligned (name, a-side, b-side) pairs — the k-th occurrence of every name
   on each side, the same normalization the simulators use. *)
let align_pairs pos_a pos_b =
  let names_a = Array.of_list (List.map fst pos_a)
  and names_b = Array.of_list (List.map fst pos_b) in
  let lits_a = Array.of_list (List.map snd pos_a)
  and lits_b = Array.of_list (List.map snd pos_b) in
  let pa = sorted_perm names_a and pb = sorted_perm names_b in
  List.init (Array.length pa) (fun k ->
      (names_a.(pa.(k)), lits_a.(pa.(k)), lits_b.(pb.(k))))

let latch_profile g =
  List.map
    (fun n ->
      let name, init, _, _ = Aig.latch_info g n in
      (name, init))
    (Aig.latches g)
  |> List.sort compare

let unique_names profile =
  let names = List.map fst profile in
  List.length (List.sort_uniq String.compare names) = List.length names

(* ------------------------------------------------- miter construction *)

let shared_input u name =
  match Aig.find_pi u name with
  | Some n -> Aig.lit_of_node n false
  | None -> Aig.pi u name

let copy_side u g ~pi ~latch =
  let xl =
    Aig.copy_into g ~into:u ~leaf:(fun n ->
        match Aig.kind g n with
        | Aig.Pi -> shared_input u (pi (Aig.pi_name g n))
        | _ -> latch n)
  in
  ( List.map (fun (name, l) -> (name, xl l)) (Aig.pos g),
    fun n -> xl (Aig.latch_next g n) )

let latch_name g n =
  let name, _, _, _ = Aig.latch_info g n in
  name

(* The model value of miter input [name]. An input that no solved cone
   reached is unconstrained and reads as false. *)
let model_input cnf u name =
  match Option.bind (Aig.find_pi u name) (Sat.Cnf.var_of_node cnf) with
  | None -> false
  | Some v -> Sat.Solver.model_value (Sat.Cnf.solver cnf) v

(* Combinational equivalence ([sequential = false]) or register-
   correspondence induction: both graphs are rebuilt into ONE
   structurally-hashed miter AIG whose primary inputs (and, for induction,
   latch states as free pseudo-inputs) are shared by name. Cones that are
   structurally equal fold their XOR obligation to constant false and cost
   no solver work at all — only genuinely different logic reaches CDCL, one
   assumption per obligation over a single incremental CNF. [None] is an
   inconclusive induction. *)
let induction ~sequential new_solver pi_a a b =
  let u = Aig.create () in
  let copy g =
    (* The "latch:" prefix keeps state pseudo-inputs from colliding with
       a real PI of the same name. *)
    copy_side u g ~pi:Fun.id ~latch:(fun n ->
        shared_input u ("latch:" ^ latch_name g n))
  in
  let pos_a, next_a = copy a in
  let pos_b, next_b = copy b in
  let nexts g next =
    List.map (fun n -> (latch_name g n, next n)) (Aig.latches g)
  in
  (* Aligned output pairs, then (for induction) next-state pairs, solved
     in that order; the first satisfiable one leaves its model. *)
  let obligations =
    align_pairs pos_a pos_b
    @ if sequential then align_pairs (nexts a next_a) (nexts b next_b) else []
  in
  let cnf = Sat.Cnf.create (new_solver ()) u in
  let differs (_, la, lb) =
    let x = Aig.xor_ u la lb in
    (* A structurally identical pair folds to false: UNSAT for free. *)
    x <> Aig.false_
    && Sat.Solver.solve ~assumptions:[ Sat.Cnf.lit cnf x ] (Sat.Cnf.solver cnf)
       = Sat.Solver.Sat
  in
  if not (List.exists differs obligations) then Some Proved
  else if sequential then
    (* The witness state may be unreachable; induction is inconclusive,
       not a refutation. *)
    None
  else
    (* Combinational: the model's PI values are a real counterexample. *)
    let tape =
      [| List.map (fun name -> (name, model_input cnf u name)) pi_a |]
    in
    Some (Refuted (replay_model pi_a a b tape))

(* Bounded model checking: unroll both netlists frame by frame into one
   fresh structurally-hashed miter AIG (frame-f inputs shared by name,
   initial states folded as constants), encode incrementally, and ask per
   frame whether any aligned output pair can differ. *)
let bmc ~frames new_solver pi_a a b =
  let s = new_solver () in
  let u = Aig.create () in
  let cnf = Sat.Cnf.create s u in
  let frame_input f name = Printf.sprintf "%s@%d" name f in
  let mk g =
    let state = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let _, init, _, _ = Aig.latch_info g n in
        Hashtbl.replace state n (if init then Aig.true_ else Aig.false_))
      (Aig.latches g);
    fun f ->
      let pos, next =
        copy_side u g ~pi:(frame_input f) ~latch:(Hashtbl.find state)
      in
      List.iter (fun n -> Hashtbl.replace state n (next n)) (Aig.latches g);
      pos
  in
  let step_a = mk a and step_b = mk b in
  let rec frame f =
    if f >= frames then
      Undecided
        (Printf.sprintf
           "BMC: no counterexample within %d frames (not a proof)" frames)
    else begin
      let goal =
        Aig.or_list u
          (List.map
             (fun (_, la, lb) -> Aig.xor_ u la lb)
             (align_pairs (step_a f) (step_b f)))
      in
      match Sat.Solver.solve ~assumptions:[ Sat.Cnf.lit cnf goal ] s with
      | Sat.Solver.Unsat -> frame (f + 1)
      | Sat.Solver.Sat ->
        let tape =
          Array.init (f + 1) (fun c ->
              List.map
                (fun name -> (name, model_input cnf u (frame_input c name)))
                pi_a)
        in
        Refuted (replay_model pi_a a b tape)
    end
  in
  frame 0

(* [f new_solver], then the summed statistics of every solver it made go
   to [on_stats], once. *)
let with_solvers ?on_stats f =
  let solvers = ref [] in
  let v =
    f (fun () ->
        let s = Sat.Solver.create () in
        solvers := s :: !solvers;
        s)
  in
  Option.iter
    (fun k ->
      k
        (List.fold_left
           (fun acc s -> add_stats acc (Sat.Solver.stats s))
           zero_stats !solvers))
    on_stats;
  v

(* No latches: combinational equivalence, complete. Same unique latch
   names and initial values: induction, then BMC if it is inconclusive.
   Otherwise BMC alone. *)
let sat ~frames new_solver pi_a a b =
  let profile = latch_profile a in
  let tried =
    if profile = latch_profile b && unique_names profile then
      induction ~sequential:(profile <> []) new_solver pi_a a b
    else None
  in
  match tried with Some v -> v | None -> bmc ~frames new_solver pi_a a b

(* ------------------------------------------------------------ BDD engine *)

let max_bdd = 200_000
let max_iters = 10_000

(* Product machine of both netlists: variables 0..k-1 are the current
   joint state (a's latches then b's), 2k+ the inputs, shared by name and
   numbered as first met. Returns each graph's literal converter and the
   machine. *)
let product ~max_vars a b =
  let latches_a = Aig.latches a and latches_b = Aig.latches b in
  let k = List.length latches_a + List.length latches_b in
  let man = Bdd.make_man () in
  let inputs = Symbolic.Vars.create ~max_vars ~first:(2 * k) [||] in
  let converter g latches offset =
    let state_var = Hashtbl.create 16 in
    List.iteri (fun i n -> Hashtbl.replace state_var n (offset + i)) latches;
    let leaf n =
      match Aig.kind g n with
      | Aig.Pi -> Symbolic.Vars.var inputs (Aig.pi_name g n)
      | _ -> Hashtbl.find state_var n
    in
    Symbolic.converter man ~max_bdd ~leaf g
  in
  let lit_a = converter a latches_a 0 in
  let lit_b = converter b latches_b (List.length latches_a) in
  let next_a = List.map (fun n -> lit_a (Aig.latch_next a n)) latches_a in
  let next_b = List.map (fun n -> lit_b (Aig.latch_next b n)) latches_b in
  let init g n =
    let _, iv, _, _ = Aig.latch_info g n in
    iv
  in
  let init = List.map (init a) latches_a @ List.map (init b) latches_b in
  let machine =
    Symbolic.machine man ~max_bdd
      ~next:(Array.of_list (next_a @ next_b))
      ~init:(Array.of_list init) ~inputs:(Symbolic.Vars.fresh inputs)
  in
  (lit_a, lit_b, machine)

exception Differs

let bdd ~max_vars ?on_stats pi_a a b =
  if 2 * (Aig.num_latches a + Aig.num_latches b) >= max_vars then
    Undecided "too many latches"
  else
    let iterate = ref 0 in
    match
      let lit_a, lit_b, machine = product ~max_vars a b in
      (* One miter per output of [a], in [a]'s order (the converter numbers
         inputs as it meets them), against its [sorted_perm] partner in
         [b]: the pairing of every other engine. *)
      let pos_a = Array.of_list (Aig.pos a) and pos_b = Array.of_list (Aig.pos b) in
      let pa = sorted_perm (Array.map fst pos_a)
      and pb = sorted_perm (Array.map fst pos_b) in
      let partner = Array.make (Array.length pa) 0 in
      Array.iteri (fun k i -> partner.(i) <- pb.(k)) pa;
      let miters =
        List.init (Array.length pos_a) (fun i ->
            Bdd.xor (lit_a (snd pos_a.(i))) (lit_b (snd pos_b.(partner.(i)))))
      in
      Symbolic.reach ~max_iters machine ~visit:(fun r ->
          if List.exists (fun m -> not (Bdd.is_zero (Bdd.and_ r m))) miters
          then raise Differs;
          incr iterate)
    with
    | _ -> Proved
    | exception Symbolic.Overflow -> Undecided "BDD effort cap exceeded"
    | exception Differs -> (
      (* Iterate i holds the states reachable within i steps and is the
         first to distinguish an output, so the first difference is at
         cycle i: BMC over i + 1 frames finds it and the tape replays. *)
      with_solvers ?on_stats @@ fun new_solver ->
      match bmc ~frames:(!iterate + 1) new_solver pi_a a b with
      | Refuted c -> Refuted c
      | Proved | Undecided _ ->
        failwith
          (Printf.sprintf
             "Equiv.run: the BDD miter fired at iterate %d but BMC found no \
              counterexample there (engine soundness bug)"
             !iterate))

let run ?on_stats engine a b =
  let pi_a = check_interfaces a b in
  match engine with
  | Sim { seed } -> sim ~seed pi_a a b
  | Sat { frames } ->
    with_solvers ?on_stats (fun new_solver -> sat ~frames new_solver pi_a a b)
  | Bdd { max_vars } -> bdd ~max_vars ?on_stats pi_a a b

let check ~seed a b = run (Sim { seed }) a b
let check_sat ?(frames = 16) ?on_stats a b = run ?on_stats (Sat { frames }) a b

let rtl_vs_aig ?(config = []) ~seed
    (d : Rtl.Design.t) g =
  let inputs = Array.of_list d.inputs in
  let c = Aig.Compiled.compile g in
  let s = Aig.Compiled.sim c in
  (* Every AIG input slot as (RTL input position, bit), from Lower's bit
     names, and every RTL output bit as (name, PO slot): resolved once. *)
  let input_bit = Hashtbl.create 64 in
  Array.iteri
    (fun k (sg : Rtl.Signal.t) ->
      for b = 0 to sg.width - 1 do
        Hashtbl.replace input_bit (Lower.bit_name sg.name b) (k, b)
      done)
    inputs;
  let pi_bits =
    Array.init (Aig.Compiled.num_pis c) (fun i ->
        let name = Aig.Compiled.pi_name c i in
        match Hashtbl.find_opt input_bit name with
        | Some kb -> kb
        | None ->
          invalid_arg
            ("Equiv.rtl_vs_aig: AIG input " ^ name ^ " is not an RTL input bit"))
  in
  let po_slot = Hashtbl.create 64 in
  for k = 0 to Aig.Compiled.num_pos c - 1 do
    Hashtbl.replace po_slot (Aig.Compiled.po_name c k) k
  done;
  let outputs =
    List.map
      (fun ((sg : Rtl.Signal.t), _) ->
        ( sg.name,
          Array.init sg.width (fun b ->
              let name = Lower.bit_name sg.name b in
              match Hashtbl.find_opt po_slot name with
              | Some k -> (b, name, k)
              | None -> invalid_arg ("Equiv.rtl_vs_aig: no AIG output " ^ name))
        ))
      d.outputs
  in
  let rec run_i i =
    if i >= runs then None
    else begin
      let rng = Random.State.make [| seed; i; 77 |] in
      let st = Rtl.Eval.create ~config d in
      (* Pre-draw the whole input tape so both sides see the same bits. *)
      let tape =
        Array.init cycles (fun _ ->
            Array.map
              (fun (sg : Rtl.Signal.t) ->
                Bitvec.of_bits
                  (List.init sg.width (fun _ -> Random.State.bool rng)))
              inputs)
      in
      Aig.Compiled.reset s;
      let rows =
        Aig.Compiled.run s ~cycles ~input:(fun cycle i ->
            let k, b = pi_bits.(i) in
            Bitvec.get tape.(cycle).(k) b)
      in
      let rec cycle_loop cycle =
        if cycle >= cycles then None
        else begin
          Array.iteri
            (fun k (sg : Rtl.Signal.t) ->
              Rtl.Eval.set_input st sg.name tape.(cycle).(k))
            inputs;
          let differs (sname, bits) =
            let v = Rtl.Eval.peek st sname in
            Array.find_map
              (fun (b, output, k) ->
                let expected = Bitvec.get v b and got = rows.(cycle).(k) in
                if got <> expected then Some { cycle; output; got; expected }
                else None)
              bits
          in
          match List.find_map differs outputs with
          | None ->
            Rtl.Eval.step st;
            cycle_loop (cycle + 1)
          | found -> found
        end
      in
      match cycle_loop 0 with None -> run_i (i + 1) | found -> found
    end
  in
  run_i 0
