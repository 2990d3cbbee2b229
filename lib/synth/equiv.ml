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

let lanes = Aig.Compiled.lanes

(* One sequential run of an AIG through the compiled kernel: feed
   per-cycle input bits by PI name, return the PO name row (declaration
   order) plus one bool array per cycle. *)
let aig_run g ~cycles ~input =
  let c = Aig.Compiled.compile g in
  let s = Aig.Compiled.sim c in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let names = Array.init npos (Aig.Compiled.po_name c) in
  let rows = ref [] in
  for cycle = 0 to cycles - 1 do
    for i = 0 to npis - 1 do
      Aig.Compiled.set_pi s i
        (Aig.Compiled.replicate (input cycle (Aig.Compiled.pi_name c i)))
    done;
    Aig.Compiled.step s;
    rows := Array.init npos (fun k -> Aig.Compiled.po s k land 1 = 1) :: !rows
  done;
  (names, List.rev !rows)

let check_interfaces who a b =
  let names g =
    ( List.sort Stdlib.compare (List.map (Aig.pi_name g) (Aig.pis g)),
      List.sort Stdlib.compare (List.map fst (Aig.pos g)) )
  in
  let pi_a, po_a = names a and pi_b, po_b = names b in
  if pi_a <> pi_b then invalid_arg (who ^ ": input interfaces differ");
  if po_a <> po_b then invalid_arg (who ^ ": output interfaces differ");
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

let find_mismatch (names_a, rows_a) (names_b, rows_b) =
  let pa = sorted_perm names_a and pb = sorted_perm names_b in
  let k = Array.length pa in
  let rec scan cycle = function
    | [], [] -> None
    | (row_a : bool array) :: rest_a, row_b :: rest_b ->
      let rec cols j =
        if j >= k then scan (cycle + 1) (rest_a, rest_b)
        else begin
          let va = row_a.(pa.(j)) and vb = row_b.(pb.(j)) in
          if va <> vb then
            Some { cycle; output = names_a.(pa.(j)); got = va; expected = vb }
          else cols (j + 1)
        end
      in
      cols 0
    | _, _ -> assert false
  in
  scan 0 (rows_a, rows_b)

let sim_search ~cycles ~runs ~seed a b =
  let pi_a = check_interfaces "Equiv.check" a b in
  let ca = Aig.Compiled.compile a and cb = Aig.Compiled.compile b in
  let sa = Aig.Compiled.sim ca and sb = Aig.Compiled.sim cb in
  (* Shared stimulus order: sorted PI names, resolved to slots once. *)
  let pi_names = Array.of_list pi_a in
  let slot c name =
    match Aig.Compiled.pi_index c name with
    | Some i -> i
    | None -> assert false
  in
  let slots_a = Array.map (slot ca) pi_names in
  let slots_b = Array.map (slot cb) pi_names in
  (* Output alignment: sorted (name, position) on each side. *)
  let po_names_a = Array.init (Aig.Compiled.num_pos ca) (Aig.Compiled.po_name ca) in
  let po_names_b = Array.init (Aig.Compiled.num_pos cb) (Aig.Compiled.po_name cb) in
  let pa = sorted_perm po_names_a and pb = sorted_perm po_names_b in
  let npo = Array.length pa in
  (* Packed pass for one run: 63 independent stimulus streams. Returns
     the first (cycle, output slot, lane) where any lane diverges. *)
  let packed_pass i =
    let st = Random.State.make [| seed; i |] in
    Aig.Compiled.reset sa;
    Aig.Compiled.reset sb;
    let found = ref None in
    let cycle = ref 0 in
    while !found = None && !cycle < cycles do
      for p = 0 to Array.length pi_names - 1 do
        let w = Aig.Compiled.random_word st in
        Aig.Compiled.set_pi sa slots_a.(p) w;
        Aig.Compiled.set_pi sb slots_b.(p) w
      done;
      Aig.Compiled.step sa;
      Aig.Compiled.step sb;
      let j = ref 0 in
      while !found = None && !j < npo do
        let diff =
          Aig.Compiled.po sa pa.(!j) lxor Aig.Compiled.po sb pb.(!j)
        in
        if diff <> 0 then
          found := Some (!cycle, !j, Aig.Compiled.ctz diff);
        incr j
      done;
      incr cycle
    done;
    !found
  in
  (* Exact single-vector replay of one lane: regenerate the packed tape,
     extract the lane's bit per (cycle, PI), and re-simulate both graphs
     on that scalar stream — the reported counterexample is exact. *)
  let replay i lane =
    let st = Random.State.make [| seed; i |] in
    let tbl = Hashtbl.create 256 in
    for cycle = 0 to cycles - 1 do
      Array.iter
        (fun name ->
          Hashtbl.replace tbl (cycle, name)
            (Aig.Compiled.random_word st lsr lane land 1 = 1))
        pi_names
    done;
    let tape =
      Array.init cycles (fun c ->
          Array.to_list
            (Array.map (fun name -> (name, Hashtbl.find tbl (c, name))) pi_names))
    in
    let input cycle name = Hashtbl.find tbl (cycle, name) in
    (find_mismatch (aig_run a ~cycles ~input) (aig_run b ~cycles ~input), tape)
  in
  let trim tape m = Array.sub tape 0 (m.cycle + 1) in
  let rec run_i i =
    if i >= runs then None
    else
      match packed_pass i with
      | None -> run_i (i + 1)
      | Some (cycle, j, lane) ->
        (match replay i lane with
         | Some m, tape -> Some (m, trim tape m)
         | None, tape ->
           (* Replay and packed kernel disagree — report the packed
              evidence rather than mask it. *)
           let got = Aig.Compiled.po sa pa.(j) lsr lane land 1 = 1 in
           let m =
             { cycle; output = po_names_a.(pa.(j)); got; expected = not got }
           in
           Some (m, trim tape m))
  in
  run_i 0

let check ?(cycles = 64) ?(runs = 8) ~seed a b =
  match sim_search ~cycles ~runs ~seed a b with
  | Some (first, tape) -> Refuted { tape; first }
  | None ->
    Undecided
      (Printf.sprintf
         "simulation: no mismatch in %d runs x %d lanes x %d cycles (not a proof)"
         runs lanes cycles)

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
    solve_s = 0.;
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
    solve_s = x.solve_s +. y.solve_s;
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

(* Replay an input tape through both scalar simulators. A SAT witness that
   fails to replay means the CNF encoding is unsound — reported loudly, not
   masked; [Refuted] always carries a concrete simulation mismatch. *)
let replay_tape a b (tape : (string * bool) list array) =
  let cycles = Array.length tape in
  let input c name = List.assoc name tape.(c) in
  match find_mismatch (aig_run a ~cycles ~input) (aig_run b ~cycles ~input) with
  | Some m -> { tape = Array.sub tape 0 (m.cycle + 1); first = m }
  | None ->
    failwith
      "Equiv.check_sat: SAT counterexample failed to replay through the \
       scalar simulator (encoder soundness bug)"

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

let first_sat cnf u obligations =
  let s = Sat.Cnf.solver cnf in
  List.find_map
    (fun (tag, la, lb) ->
      let x = Aig.xor_ u la lb in
      if x = Aig.false_ then None (* structurally identical: free UNSAT *)
      else
        match Sat.Solver.solve ~assumptions:[ Sat.Cnf.lit cnf x ] s with
        | Sat.Solver.Unsat -> None
        | Sat.Solver.Sat -> Some tag)
    obligations

(* The model value of miter input [name]. An input that no solved cone
   reached is unconstrained and reads as false. *)
let model_input cnf u name =
  match Option.bind (Aig.find_pi u name) (Sat.Cnf.var_of_node cnf) with
  | None -> false
  | Some v -> Sat.Solver.model_value (Sat.Cnf.solver cnf) v

let check_sat ?(frames = 16) ?on_stats a b =
  let pi_a = check_interfaces "Equiv.check_sat" a b in
  let solvers = ref [] in
  let new_solver () =
    let s = Sat.Solver.create () in
    solvers := s :: !solvers;
    s
  in
  let finish v =
    (match on_stats with
     | None -> ()
     | Some f ->
       f
         (List.fold_left
            (fun acc s -> add_stats acc (Sat.Solver.stats s))
            zero_stats !solvers));
    v
  in
  (* Shared machinery for combinational CEC and register-correspondence
     induction: both graphs are rebuilt into ONE structurally-hashed miter
     AIG whose primary inputs (and, for induction, latch states as free
     pseudo-inputs) are shared by name. Cones that are structurally equal
     fold their XOR obligation to constant false and cost no solver work at
     all — only genuinely different logic reaches CDCL, one assumption per
     obligation over a single incremental CNF. *)
  let try_induction ~sequential () =
    let u = Aig.create () in
    let copy g =
      let xl =
        Aig.copy_into g ~into:u ~leaf:(fun n ->
            match Aig.kind g n with
            | Aig.Pi -> shared_input u (Aig.pi_name g n)
            | _ ->
              let name, _, _, _ = Aig.latch_info g n in
              (* The "latch:" prefix keeps state pseudo-inputs from
                 colliding with a real PI of the same name. *)
              shared_input u ("latch:" ^ name))
      in
      ( List.map (fun (name, l) -> (name, xl l)) (Aig.pos g),
        List.map
          (fun n ->
            let name, _, _, _ = Aig.latch_info g n in
            (name, xl (Aig.latch_next g n)))
          (Aig.latches g) )
    in
    let pos_a, next_a = copy a in
    let pos_b, next_b = copy b in
    let obligations =
      List.map
        (fun (name, la, lb) -> ("output " ^ name, la, lb))
        (align_pairs pos_a pos_b)
      @
      if sequential then
        List.map
          (fun (name, la, lb) -> ("next-state of latch " ^ name, la, lb))
          (align_pairs next_a next_b)
      else []
    in
    let cnf = Sat.Cnf.create (new_solver ()) u in
    match first_sat cnf u obligations with
    | None -> `Proved
    | Some tag when sequential ->
      (* The witness state may be unreachable; induction is inconclusive,
         not a refutation. *)
      `Inconclusive tag
    | Some _ ->
      (* Combinational: the model's PI values are a real counterexample. *)
      let tape =
        [| List.map (fun name -> (name, model_input cnf u name)) pi_a |]
      in
      `Refuted (replay_tape a b tape)
  in
  (* Bounded model checking: unroll both netlists frame by frame into one
     fresh structurally-hashed miter AIG (frame-f inputs shared by name,
     initial states folded as constants), encode incrementally, and ask
     per frame whether any aligned output pair can differ. *)
  let bmc () =
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
        let xl =
          Aig.copy_into g ~into:u ~leaf:(fun n ->
              match Aig.kind g n with
              | Aig.Pi -> shared_input u (frame_input f (Aig.pi_name g n))
              | _ -> Hashtbl.find state n)
        in
        let nexts =
          List.map (fun n -> (n, xl (Aig.latch_next g n))) (Aig.latches g)
        in
        let pos = List.map (fun (name, l) -> (name, xl l)) (Aig.pos g) in
        List.iter (fun (n, l) -> Hashtbl.replace state n l) nexts;
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
          Refuted (replay_tape a b tape)
      end
    in
    frame 0
  in
  if Aig.num_latches a = 0 && Aig.num_latches b = 0 then
    match try_induction ~sequential:false () with
    | `Proved -> finish Proved
    | `Refuted cex -> finish (Refuted cex)
    | `Inconclusive _ -> assert false
  else begin
    let la = latch_profile a and lb = latch_profile b in
    if la = lb && unique_names la then
      match try_induction ~sequential:true () with
      | `Proved -> finish Proved
      | `Inconclusive _ -> finish (bmc ())
      | `Refuted _ -> assert false
    else finish (bmc ())
  end

let rtl_vs_aig ?(cycles = 64) ?(runs = 8) ?(config = []) ~seed
    (d : Rtl.Design.t) g =
  let rec run_i i =
    if i >= runs then None
    else begin
      let rng = Random.State.make [| seed; i; 77 |] in
      let st = Rtl.Eval.create ~config d in
      (* Pre-draw the whole input tape so both sides see the same bits. *)
      let tape =
        Array.init cycles (fun _ ->
            List.map
              (fun (s : Rtl.Signal.t) ->
                ( s.name,
                  Bitvec.of_bits
                    (List.init s.width (fun _ -> Random.State.bool rng)) ))
              d.inputs)
      in
      let input cycle name =
        (* name is "sig[i]" *)
        let base, idx =
          match String.index_opt name '[' with
          | Some k ->
            ( String.sub name 0 k,
              int_of_string (String.sub name (k + 1) (String.length name - k - 2)) )
          | None -> (name, 0)
        in
        Bitvec.get (List.assoc base tape.(cycle)) idx
      in
      let aig_names, aig_rows = aig_run g ~cycles ~input in
      let aig_pos = Hashtbl.create (Array.length aig_names) in
      Array.iteri (fun k name -> Hashtbl.replace aig_pos name k) aig_names;
      let rec cycle_loop cycle aig_rows =
        match aig_rows with
        | [] -> None
        | (row : bool array) :: rest ->
          List.iter
            (fun (name, v) -> Rtl.Eval.set_input st name v)
            tape.(cycle);
          let bad =
            List.fold_left
              (fun acc ((s : Rtl.Signal.t), _) ->
                match acc with
                | Some _ -> acc
                | None ->
                  let v = Rtl.Eval.peek st s.name in
                  let rec check i =
                    if i >= s.width then None
                    else begin
                      let expected = Bitvec.get v i in
                      let name = Printf.sprintf "%s[%d]" s.name i in
                      let got = row.(Hashtbl.find aig_pos name) in
                      if got <> expected then
                        Some { cycle; output = name; got; expected }
                      else check (i + 1)
                    end
                  in
                  check 0)
              None d.outputs
          in
          (match bad with
           | Some m -> Some m
           | None ->
             Rtl.Eval.step st;
             cycle_loop (cycle + 1) rest)
      in
      match cycle_loop 0 aig_rows with
      | Some m -> Some m
      | None -> run_i (i + 1)
    end
  in
  run_i 0
