(* SAT layer: CDCL solver unit regressions, brute-force differential on
   random small CNFs, Tseitin encoding checked against AIG evaluation, and
   the equivalence-engine differential suite (sim vs SAT must never
   disagree; every SAT counterexample must replay to a concrete scalar-sim
   mismatch). *)

let lit_value s sl =
  let v = Sat.Solver.model_value s (abs sl) in
  if sl < 0 then not v else v

(* ---------------------------------------------------------------- units *)

let test_trivial_sat () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s in
  let y = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ x; y ];
  Sat.Solver.add_clause s [ -x; y ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "y forced" true (Sat.Solver.model_value s y)

let test_trivial_unsat () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ x ];
  Sat.Solver.add_clause s [ -x ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Sat.Solver.ok s)

let test_empty_clause () =
  let s = Sat.Solver.create () in
  let _ = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [];
  Alcotest.(check bool) "not ok" false (Sat.Solver.ok s);
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_duplicate_and_tautology () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s in
  let y = Sat.Solver.new_var s in
  (* Tautology must be dropped, not corrupt the database. *)
  Sat.Solver.add_clause s [ x; -x ];
  (* Duplicates must merge: [y; y] is the unit clause y. *)
  Sat.Solver.add_clause s [ y; y ];
  Sat.Solver.add_clause s [ -x ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "y" true (Sat.Solver.model_value s y);
  Alcotest.(check bool) "x" false (Sat.Solver.model_value s x)

let test_unit_propagation_level0 () =
  (* A unit chain resolvable entirely at decision level 0: x, x->y, y->z,
     then a clause false under the forced assignment flips to unsat with no
     search (decisions stays 0). *)
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s in
  let y = Sat.Solver.new_var s in
  let z = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ x ];
  Sat.Solver.add_clause s [ -x; y ];
  Sat.Solver.add_clause s [ -y; z ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "z forced" true (Sat.Solver.model_value s z);
  let d0 = (Sat.Solver.stats s).decisions in
  Alcotest.(check int) "no decisions needed" 0 d0;
  Sat.Solver.add_clause s [ -z ];
  Alcotest.(check bool) "now unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_assumptions_incremental () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s in
  let y = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ -x; y ];
  (* Conflicting assumptions make this call unsat... *)
  Alcotest.(check bool) "assumed unsat" true
    (Sat.Solver.solve ~assumptions:[ x; -y ] s = Sat.Solver.Unsat);
  (* ...but must not poison the database for later calls. *)
  Alcotest.(check bool) "still sat" true
    (Sat.Solver.solve ~assumptions:[ x ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "y under x" true (Sat.Solver.model_value s y);
  Alcotest.(check bool) "free sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: small but forces real conflict analysis. *)
  let s = Sat.Solver.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to 3 do
    Sat.Solver.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to 2 do
    for p = 0 to 3 do
      for q = p + 1 to 3 do
        Sat.Solver.add_clause s [ -v.(p).(h); -v.(q).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "had conflicts" true
    ((Sat.Solver.stats s).conflicts > 0)

(* ------------------------------------------------- brute-force differential *)

let brute_force nvars clauses =
  let sat = ref false in
  let n = 1 lsl nvars in
  let i = ref 0 in
  while (not !sat) && !i < n do
    let value v = !i land (1 lsl (v - 1)) <> 0 in
    let clause_ok c = List.exists (fun l -> value (abs l) = (l > 0)) c in
    if List.for_all clause_ok clauses then sat := true;
    incr i
  done;
  !sat

let gen_cnf rng =
  let nvars = 1 + Workload.Rng.int rng 10 in
  let nclauses = 1 + Workload.Rng.int rng 42 in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Workload.Rng.int rng 4 in
        List.init len (fun _ ->
            let v = 1 + Workload.Rng.int rng nvars in
            if Workload.Rng.bool rng then v else -v))
  in
  (nvars, clauses)

let cnf_prop =
  Prop.make
    ~show:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat " " (List.map string_of_int c) ^ ")")
              cs)))
    ~shrink:(fun (n, cs) ->
      (* Drop one clause at a time. *)
      List.mapi (fun i _ -> (n, List.filteri (fun j _ -> j <> i) cs)) cs)
    gen_cnf

let solver_of_cnf nvars clauses =
  let s = Sat.Solver.create () in
  for _ = 1 to nvars do
    ignore (Sat.Solver.new_var s)
  done;
  List.iter (Sat.Solver.add_clause s) clauses;
  s

let prop_cdcl_vs_brute =
  Prop.test ~iters:300 ~seed:1000 "cdcl agrees with brute force" cnf_prop
    (fun (nvars, clauses) ->
      let s = solver_of_cnf nvars clauses in
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> not (brute_force nvars clauses)
      | Sat.Solver.Sat ->
        (* Model must actually satisfy every clause. *)
        List.for_all (List.exists (lit_value s)) clauses)

let prop_incremental_assumptions =
  (* Solving under assumptions must equal solving a copy with the
     assumptions added as unit clauses, and must leave the database
     reusable (same verdict as a fresh solve afterwards). *)
  Prop.test ~iters:150 ~seed:2000 "assumptions = unit clauses" cnf_prop
    (fun (nvars, clauses) ->
      let rng = Workload.Rng.make (Hashtbl.hash (nvars, clauses)) in
      let assumptions =
        List.init
          (1 + Workload.Rng.int rng 3)
          (fun _ ->
            let v = 1 + Workload.Rng.int rng nvars in
            if Workload.Rng.bool rng then v else -v)
      in
      let s = solver_of_cnf nvars clauses in
      let incremental = Sat.Solver.solve ~assumptions s in
      let monolithic =
        let s' = solver_of_cnf nvars clauses in
        List.iter (fun a -> Sat.Solver.add_clause s' [ a ]) assumptions;
        Sat.Solver.solve s'
      in
      let after = Sat.Solver.solve s in
      let fresh = Sat.Solver.solve (solver_of_cnf nvars clauses) in
      incremental = monolithic && after = fresh)

(* -------------------------------------------------------------- tseitin *)

(* Random combinational AIG: a handful of PIs, then a pile of random
   and/or/xor/mux gates over existing literals, one PO per final gate. *)
let gen_aig rng =
  let g = Aig.create () in
  let npis = 1 + Workload.Rng.int rng 5 in
  let lits =
    ref (List.init npis (fun i -> Aig.pi g (Printf.sprintf "i%d" i)))
  in
  let pick () =
    let l = Workload.Rng.pick rng !lits in
    if Workload.Rng.bool rng then Aig.not_ l else l
  in
  let ngates = 1 + Workload.Rng.int rng 30 in
  for _ = 1 to ngates do
    let l =
      match Workload.Rng.int rng 4 with
      | 0 -> Aig.and_ g (pick ()) (pick ())
      | 1 -> Aig.or_ g (pick ()) (pick ())
      | 2 -> Aig.xor_ g (pick ()) (pick ())
      | _ -> Aig.mux_ g (pick ()) (pick ()) (pick ())
    in
    lits := l :: !lits
  done;
  Aig.po g "f" (List.hd !lits);
  Aig.po g "g" (pick ());
  g

let aig_prop =
  Prop.make ~show:(fun (seed, _) -> Printf.sprintf "aig seed %d" seed)
    (fun rng ->
      let seed = Workload.Rng.int rng 1_000_000 in
      (seed, gen_aig (Workload.Rng.make seed)))

let prop_tseitin_matches_eval =
  Prop.test ~iters:200 ~seed:4000 "tseitin encoding matches Aig.eval_all"
    aig_prop
    (fun (seed, g) ->
      let s = Sat.Solver.create () in
      let cnf = Sat.Cnf.create s g in
      let out_lits = List.map (fun (_, l) -> Sat.Cnf.lit cnf l) (Aig.pos g) in
      let rng = Workload.Rng.make (seed + 1) in
      let ok = ref true in
      for _ = 1 to 8 do
        let values = Hashtbl.create 8 in
        let assumptions =
          List.map
            (fun n ->
              let b = Workload.Rng.bool rng in
              Hashtbl.replace values n b;
              let v = Sat.Cnf.lit cnf (Aig.lit_of_node n false) in
              if b then v else -v)
            (Aig.pis g)
        in
        let eval =
          Aig.eval_all g
            ~pi:(fun n -> Hashtbl.find values n)
            ~latch:(fun _ -> false)
        in
        (* Inputs pinned: must be Sat, and every PO's model value must
           match scalar evaluation. *)
        (match Sat.Solver.solve ~assumptions s with
         | Sat.Solver.Unsat -> ok := false
         | Sat.Solver.Sat ->
           List.iteri
             (fun i (_, l) ->
               if lit_value s (List.nth out_lits i) <> eval l then ok := false)
             (Aig.pos g));
        (* Additionally pinning one PO to the wrong value must be Unsat. *)
        let name, l0 = List.hd (Aig.pos g) in
        ignore name;
        let wrong =
          let sl = Sat.Cnf.lit cnf l0 in
          if eval l0 then -sl else sl
        in
        if Sat.Solver.solve ~assumptions:(wrong :: assumptions) s
           <> Sat.Solver.Unsat
        then ok := false
      done;
      !ok)

let test_tseitin_const () =
  (* Constant outputs (structural hashing folds them to the const node)
     must encode to forced literals. *)
  let g = Aig.create () in
  let a = Aig.pi g "a" in
  Aig.po g "zero" (Aig.and_ g a (Aig.not_ a));
  Aig.po g "one" (Aig.or_ g a (Aig.not_ a));
  let s = Sat.Solver.create () in
  let cnf = Sat.Cnf.create s g in
  let zero = Sat.Cnf.lit cnf (snd (List.nth (Aig.pos g) 0)) in
  let one = Sat.Cnf.lit cnf (snd (List.nth (Aig.pos g) 1)) in
  Alcotest.(check bool) "zero unsat as true" true
    (Sat.Solver.solve ~assumptions:[ zero ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "one unsat as false" true
    (Sat.Solver.solve ~assumptions:[ -one ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "consistent" true (Sat.Solver.solve s = Sat.Solver.Sat)

(* -------------------------------------------------- equivalence engines *)

let lib = Cells.Library.vt90

(* Copy [g] into a fresh graph node by node (no structural-hash surprises:
   the copy has the same interface and behaviour), optionally perturbing
   it. [`Invert_po]/[`Xor_po_pi] are disequivalent by construction on any
   design with at least one output (respectively one input);
   [`Flip_init] may or may not be observable. *)
let copy_perturbed ~perturb ~seed g =
  let rng = Workload.Rng.make (seed lxor 0x5eed) in
  let flip_latch =
    match perturb with
    | `Flip_init when Aig.num_latches g > 0 ->
      List.nth (Aig.latches g) (Workload.Rng.int rng (Aig.num_latches g))
    | _ -> -1
  in
  let ng = Aig.create () in
  let xl =
    Aig.copy_into g ~into:ng ~leaf:(fun n ->
        match Aig.kind g n with
        | Aig.Pi -> Aig.pi ng (Aig.pi_name g n)
        | _ ->
          let name, init, reset, is_config = Aig.latch_info g n in
          let init = if n = flip_latch then not init else init in
          Aig.latch ng name ~init ~reset ~is_config)
  in
  List.iter
    (fun n ->
      Aig.set_next ng (xl (Aig.lit_of_node n false)) (xl (Aig.latch_next g n)))
    (Aig.latches g);
  let npos = List.length (Aig.pos g) in
  let hit = if npos = 0 then -1 else Workload.Rng.int rng npos in
  List.iteri
    (fun i (name, l) ->
      let l = xl l in
      let l =
        if i <> hit then l
        else
          match perturb with
          | `Invert_po -> Aig.not_ l
          | `Xor_po_pi ->
            (match Aig.pis ng with
             | [] -> Aig.not_ l
             | p :: _ -> Aig.xor_ ng l (Aig.lit_of_node p false))
          | `None | `Flip_init -> l
      in
      Aig.po ng name l)
    (Aig.pos g);
  ng

(* One differential check over [engines]: no two of them split [Proved]
   and [Refuted], simulation never claims a proof, and every tape ends at
   its mismatch. Each engine replays its witness through the scalar
   simulator, and a witness that does not replay raises [Failure], which
   the harness counts as a falsification. Returns the verdicts by name. *)
let refuted = function Synth.Equiv.Refuted _ -> true | _ -> false

let differential engines a b =
  let verdicts =
    List.map (fun (name, engine) -> (name, Synth.Equiv.run engine a b)) engines
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Synth.Equiv.Refuted c
        when Array.length c.tape <> c.first.Synth.Equiv.cycle + 1 ->
        failwith (name ^ " tape does not end at its mismatch")
      | Synth.Equiv.Proved when name = "sim" ->
        failwith "simulation engine claimed a proof"
      | _ -> ())
    verdicts;
  if
    List.exists (fun (_, v) -> v = Synth.Equiv.Proved) verdicts
    && List.exists (fun (_, v) -> refuted v) verdicts
  then failwith "DISAGREEMENT: one engine proved what another refuted";
  verdicts

let perturbation = function
  | 0 -> `None
  | 1 -> `Invert_po
  | 2 -> `Xor_po_pi
  | _ -> `Flip_init

(* Simulation against the complete SAT engine on seeded random designs and
   their perturbations; the perturbations that are disequivalent by
   construction must be refuted by SAT. *)
let prop_engines_agree =
  let p = Prop.pair (Prop.int 1_000_000) (Prop.int 4) in
  Prop.test ~iters:200 ~seed:5000 "sim/SAT engines agree on random designs" p
    (fun (dseed, kind) ->
      let d = Workload.Rand_design.generate ~seed:dseed in
      let a = (Synth.Lower.run d).Synth.Lower.aig in
      let perturb = perturbation kind in
      let b = copy_perturbed ~perturb ~seed:dseed a in
      let verdicts =
        differential
          [
            ("sim", Synth.Equiv.Sim { seed = dseed });
            ("SAT", Synth.Equiv.Sat { frames = 8 });
          ]
          a b
      in
      match (perturb, List.assoc "SAT" verdicts) with
      | (`Invert_po | `Xor_po_pi), Synth.Equiv.Refuted _ -> true
      | (`Invert_po | `Xor_po_pi), _ ->
        (* Disequivalent by construction (an output is inverted / xor-ed
           with an input): only a latch-free, output-free or input-free
           degenerate design escapes. *)
        Aig.num_pos a = 0 || (perturb = `Xor_po_pi && Aig.num_pis a = 0)
      | (`None | `Flip_init), _ -> true)

(* The BDD product machine against the SAT engine, on each random design
   paired with its sweep (which neither may refute) and with its
   perturbations. *)
let prop_bdd_agrees =
  let p = Prop.pair (Prop.int 1_000_000) (Prop.int 4) in
  Prop.test ~iters:200 ~seed:8000 "BDD engine vs SAT engine" p
    (fun (dseed, kind) ->
      let d = Workload.Rand_design.generate ~seed:dseed in
      let a = (Synth.Lower.run d).Synth.Lower.aig in
      let b =
        match perturbation kind with
        | `None -> Synth.Sweep.run a
        | perturb -> copy_perturbed ~perturb ~seed:dseed a
      in
      let verdicts =
        differential
          [
            ("SAT", Synth.Equiv.Sat { frames = 8 });
            ("BDD", Synth.Equiv.Bdd { max_vars = 40 });
          ]
          a b
      in
      if kind = 0 && List.exists (fun (_, v) -> refuted v) verdicts then
        failwith "an engine refuted the sweep";
      true)

(* The optimizing flow must never be refuted by the complete engine. *)
let prop_flow_never_refuted =
  Prop.test ~iters:60 ~seed:6000 "SAT engine vs optimizing flow"
    (Prop.int 1_000_000) (fun dseed ->
      let d = Workload.Rand_design.generate ~seed:dseed in
      let low = (Synth.Lower.run d).Synth.Lower.aig in
      let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
      match Synth.Equiv.run (Synth.Equiv.Sat { frames = 6 }) low opt with
      | Synth.Equiv.Refuted c ->
        failwith ("flow refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
      | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> true)

(* -------------------------------------------- Sim engine witness oracle *)

(* The [Sim] engine as it was when its packed search and its replay were
   two loops: per run, a packed pass over both compiled netlists; on a
   divergence, the lowest diverging lane's tape regenerated from a
   reseeded stream and replayed on fresh scalar simulators. Kept over the
   public [Aig.Compiled] API as an oracle for the engine's verdict,
   [first] and [tape]. *)
let oracle_sorted_perm names =
  let perm = Array.init (Array.length names) Fun.id in
  Array.sort
    (fun i j ->
      match String.compare names.(i) names.(j) with 0 -> compare i j | c -> c)
    perm;
  perm

let oracle_po_perm c =
  let names = Array.init (Aig.Compiled.num_pos c) (Aig.Compiled.po_name c) in
  (names, oracle_sorted_perm names)

let oracle_replay ca cb (tape : (string * bool) list array) =
  let slots c =
    Array.of_list
      (List.map (fun (name, _) -> Option.get (Aig.Compiled.pi_index c name)) tape.(0))
  in
  let slot_a = slots ca and slot_b = slots cb in
  let sa = Aig.Compiled.sim ca and sb = Aig.Compiled.sim cb in
  let names, pa = oracle_po_perm ca and _, pb = oracle_po_perm cb in
  let rec run cycle =
    if cycle >= Array.length tape then None
    else begin
      List.iteri
        (fun p (_, v) ->
          let w = Aig.Compiled.replicate v in
          Aig.Compiled.set_pi sa slot_a.(p) w;
          Aig.Compiled.set_pi sb slot_b.(p) w)
        tape.(cycle);
      Aig.Compiled.step sa;
      Aig.Compiled.step sb;
      scan cycle 0
    end
  and scan cycle j =
    if j >= Array.length pa then run (cycle + 1)
    else
      let va = Aig.Compiled.po sa pa.(j) land 1 = 1
      and vb = Aig.Compiled.po sb pb.(j) land 1 = 1 in
      if va <> vb then
        Some
          { Synth.Equiv.cycle; output = names.(pa.(j)); got = va; expected = vb }
      else scan cycle (j + 1)
  in
  run 0

let oracle_sim ~seed a b =
  let cycles = 64 and runs = 8 in
  let pi_names = List.sort compare (List.map (Aig.pi_name a) (Aig.pis a)) in
  let ca = Aig.Compiled.compile a and cb = Aig.Compiled.compile b in
  let sa = Aig.Compiled.sim ca and sb = Aig.Compiled.sim cb in
  let slots c =
    Array.of_list
      (List.map (fun name -> Option.get (Aig.Compiled.pi_index c name)) pi_names)
  in
  let slots_a = slots ca and slots_b = slots cb in
  let _, pa = oracle_po_perm ca and _, pb = oracle_po_perm cb in
  let packed_pass i =
    let st = Random.State.make [| seed; i |] in
    Aig.Compiled.reset sa;
    Aig.Compiled.reset sb;
    let found = ref None and cycle = ref 0 in
    while !found = None && !cycle < cycles do
      Array.iteri
        (fun p slot_a ->
          let w = Aig.Compiled.random_word st in
          Aig.Compiled.set_pi sa slot_a w;
          Aig.Compiled.set_pi sb slots_b.(p) w)
        slots_a;
      Aig.Compiled.step sa;
      Aig.Compiled.step sb;
      let j = ref 0 in
      while !found = None && !j < Array.length pa do
        let diff = Aig.Compiled.po sa pa.(!j) lxor Aig.Compiled.po sb pb.(!j) in
        if diff <> 0 then found := Some (Aig.Compiled.ctz diff);
        incr j
      done;
      incr cycle
    done;
    !found
  in
  let lane_tape i lane =
    let st = Random.State.make [| seed; i |] in
    Array.init cycles (fun _ ->
        List.map
          (fun name -> (name, Aig.Compiled.random_word st lsr lane land 1 = 1))
          pi_names)
  in
  let rec run_i i =
    if i >= runs then
      Synth.Equiv.Undecided
        (Printf.sprintf
           "simulation: no mismatch in %d runs x %d lanes x %d cycles (not a proof)"
           runs Aig.Compiled.lanes cycles)
    else
      match packed_pass i with
      | None -> run_i (i + 1)
      | Some lane ->
        let tape = lane_tape i lane in
        let m = Option.get (oracle_replay ca cb tape) in
        Synth.Equiv.Refuted
          { tape = Array.sub tape 0 (m.cycle + 1); first = m }
  in
  run_i 0

(* The engine against the oracle on random designs paired with an
   inverted-output mutant, with their flow output, and with perturbations
   that diverge on some lanes or cycles only. *)
let prop_sim_matches_oracle =
  let p = Prop.pair (Prop.int 1_000_000) (Prop.int 4) in
  Prop.test ~iters:60 ~seed:9000 "sim witness = two-loop oracle" p
    (fun (dseed, kind) ->
      let d = Workload.Rand_design.generate ~seed:dseed in
      let low = (Synth.Lower.run d).Synth.Lower.aig in
      let opt () = (Synth.Flow.compile lib d).Synth.Flow.aig in
      let k = if Aig.num_pos low = 0 then 0 else dseed mod Aig.num_pos low in
      let b =
        match kind with
        | 0 -> Aig_util.invert_po k low
        | 1 -> opt ()
        | 2 -> Aig_util.invert_po k (opt ())
        | _ -> copy_perturbed ~perturb:`Xor_po_pi ~seed:dseed low
      in
      Synth.Equiv.run (Synth.Equiv.Sim { seed = dseed }) low b
      = oracle_sim ~seed:dseed low b)

(* ------------------------------------------- directed engine regressions *)

let test_check_sat_comb_refute () =
  let mk op =
    let g = Aig.create () in
    let a = Aig.pi g "a" in
    let b = Aig.pi g "b" in
    Aig.po g "f" (op g a b);
    g
  in
  match
    Synth.Equiv.run (Synth.Equiv.Sat { frames = 16 }) (mk Aig.and_)
      (mk Aig.or_)
  with
  | Synth.Equiv.Refuted c ->
    Alcotest.(check int) "cycle" 0 c.first.Synth.Equiv.cycle;
    Alcotest.(check string) "output" "f" c.first.Synth.Equiv.output
  | Synth.Equiv.Proved -> Alcotest.fail "proved and/or equal"
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

let test_check_sat_induction_proof () =
  (* Same latch profile, structurally different but logically equal output
     cones: the register-correspondence induction must close without BMC. *)
  let mk distributed =
    let g = Aig.create () in
    let a = Aig.pi g "a" in
    let b = Aig.pi g "b" in
    let c = Aig.pi g "c" in
    let q = Aig.latch g "q" ~init:false ~reset:Rtl.Design.No_reset ~is_config:false in
    Aig.set_next g q a;
    let f =
      if distributed then Aig.or_ g (Aig.and_ g q b) (Aig.and_ g q c)
      else Aig.and_ g q (Aig.or_ g b c)
    in
    Aig.po g "f" f;
    g
  in
  match
    Synth.Equiv.run (Synth.Equiv.Sat { frames = 16 }) (mk false) (mk true)
  with
  | Synth.Equiv.Proved -> ()
  | Synth.Equiv.Refuted c ->
    Alcotest.fail ("refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

(* A one-cycle delay implemented with oppositely-named, oppositely-phased
   latches: the latch profiles differ so the engine must go through BMC. *)
let bmc_pair ~inverted =
  let ga =
    let g = Aig.create () in
    let a = Aig.pi g "a" in
    let q = Aig.latch g "q" ~init:false ~reset:Rtl.Design.No_reset ~is_config:false in
    Aig.set_next g q a;
    Aig.po g "f" q;
    g
  in
  let gb =
    let g = Aig.create () in
    let a = Aig.pi g "a" in
    let p = Aig.latch g "p" ~init:true ~reset:Rtl.Design.No_reset ~is_config:false in
    (* [inverted]: store [not a], output [not p] — equivalent to [ga].
       Otherwise store [a] behind init [true], output [not p] — differs
       from cycle 1 on. *)
    Aig.set_next g p (if inverted then Aig.not_ a else a);
    Aig.po g "f" (Aig.not_ p);
    g
  in
  (ga, gb)

let test_check_sat_bmc_refute () =
  let ga, gb = bmc_pair ~inverted:false in
  match Synth.Equiv.run (Synth.Equiv.Sat { frames = 4 }) ga gb with
  | Synth.Equiv.Refuted c ->
    Alcotest.(check int) "cycle" 1 c.first.Synth.Equiv.cycle;
    Alcotest.(check string) "output" "f" c.first.Synth.Equiv.output
  | Synth.Equiv.Proved -> Alcotest.fail "proved inequivalent pair"
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

let test_check_sat_bmc_bound () =
  (* Equivalent but with disjoint latch names: BMC can only bound, and the
     verdict must say so rather than claim a proof. *)
  let ga, gb = bmc_pair ~inverted:true in
  match Synth.Equiv.run (Synth.Equiv.Sat { frames = 4 }) ga gb with
  | Synth.Equiv.Undecided s ->
    Alcotest.(check bool) "mentions BMC" true
      (String.length s >= 3 && String.sub s 0 3 = "BMC")
  | Synth.Equiv.Proved -> Alcotest.fail "BMC cannot prove"
  | Synth.Equiv.Refuted c ->
    Alcotest.fail ("refuted: " ^ Synth.Equiv.mismatch_to_string c.first)

let test_bdd_renamed_proof () =
  (* The same renamed pair BMC could only bound: the BDD reach set closes
     it into a complete proof. *)
  let ga, gb = bmc_pair ~inverted:true in
  match Synth.Equiv.run (Synth.Equiv.Bdd { max_vars = 64 }) ga gb with
  | Synth.Equiv.Proved -> ()
  | Synth.Equiv.Refuted c ->
    Alcotest.fail ("refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

let test_bdd_cex () =
  let ga, gb = bmc_pair ~inverted:false in
  match Synth.Equiv.run (Synth.Equiv.Bdd { max_vars = 64 }) ga gb with
  | Synth.Equiv.Refuted c ->
    Alcotest.(check string) "normalized witness"
      "cycle 1, output f: false vs true"
      (Synth.Equiv.mismatch_to_string c.first)
  | Synth.Equiv.Proved -> Alcotest.fail "proved inequivalent pair"
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

let test_repeated_output_names () =
  (* Two copies of one netlist whose two outputs share the name [o]: a
     latch and a PI. Every engine pairs the k-th [o] of one side with the
     k-th of the other; pairing each with the first [o] of the other side
     would compare the latch with the PI. *)
  let netlist () =
    let g = Aig.create () in
    let x = Aig.pi g "x" in
    let y = Aig.pi g "y" in
    let q = Aig.latch g "q" ~init:false ~reset:Rtl.Design.No_reset ~is_config:false in
    Aig.set_next g q x;
    Aig.po g "o" q;
    Aig.po g "o" y;
    g
  in
  let a = netlist () and b = netlist () in
  let proves name engine =
    match Synth.Equiv.run engine a b with
    | Synth.Equiv.Proved -> ()
    | Synth.Equiv.Refuted c ->
      Alcotest.fail
        (name ^ " refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
    | Synth.Equiv.Undecided s -> Alcotest.fail (name ^ " undecided: " ^ s)
  in
  proves "SAT" (Synth.Equiv.Sat { frames = 4 });
  proves "BDD" (Synth.Equiv.Bdd { max_vars = 40 });
  match Synth.Equiv.run (Synth.Equiv.Sim { seed = 1 }) a b with
  | Synth.Equiv.Refuted c ->
    Alcotest.fail ("sim refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ()

(* -------------------------------------------------- PCtrl certification *)

let test_pctrl_certified () =
  let a, b = Pctrl.Controller.certification_pair Pctrl.Controller.Cached in
  match Synth.Equiv.run (Synth.Equiv.Sat { frames = 16 }) a b with
  | Synth.Equiv.Proved -> ()
  | Synth.Equiv.Refuted c ->
    Alcotest.fail ("refuted: " ^ Synth.Equiv.mismatch_to_string c.first)
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

let test_pctrl_mutation_refuted () =
  (* Seed 8 flips a dispatch-table bit whose effect surfaces within a few
     cycles (seen first by simulation, then certified here): the SAT
     engine must refute with a concrete replayed witness. *)
  let mode = Pctrl.Controller.Cached in
  let bindings, _ =
    Workload.Rng.mutate_bindings ~seed:8 (Pctrl.Controller.bindings mode)
  in
  let a', b = Pctrl.Controller.certification_pair ~bindings mode in
  match Synth.Equiv.run (Synth.Equiv.Sat { frames = 6 }) a' b with
  | Synth.Equiv.Refuted c ->
    Alcotest.(check bool) "within the BMC bound" true
      (c.first.Synth.Equiv.cycle < 6);
    Alcotest.(check bool) "tape ends at the mismatch" true
      (Array.length c.tape = c.first.Synth.Equiv.cycle + 1)
  | Synth.Equiv.Proved -> Alcotest.fail "proved a mutated design"
  | Synth.Equiv.Undecided s -> Alcotest.fail ("undecided: " ^ s)

(* ------------------------------------------------------- equiv golden *)

(* Golden record of the SAT engine: for each pair, the verdict (with a
   digest of every witness tape) and the solver work, plus the structural
   digest of the AIG-level PCtrl binding. The miters are built node for
   node the same way on every run, so any change to miter construction,
   obligation order or CNF shows up as a diff against
   test/golden/equiv.txt. *)
let equiv_fingerprint () =
  let b = Buffer.create 8192 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let tape_digest tape =
    Array.to_list tape
    |> List.map (fun row ->
           String.concat ","
             (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) row))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let verdict = function
    | Synth.Equiv.Proved -> "proved"
    | Synth.Equiv.Refuted c ->
      Printf.sprintf "refuted %s (tape %d, %s)"
        (Synth.Equiv.mismatch_to_string c.first)
        (Array.length c.tape) (tape_digest c.tape)
    | Synth.Equiv.Undecided s -> "undecided: " ^ s
  in
  let pair ?(frames = 16) name a b =
    let stats = ref "" in
    let on_stats (s : Sat.Solver.stats) =
      stats :=
        Printf.sprintf "solves %d conflicts %d decisions %d propagations %d"
          s.Sat.Solver.solves s.Sat.Solver.conflicts s.Sat.Solver.decisions
          s.Sat.Solver.propagations
    in
    let v = Synth.Equiv.run ~on_stats (Synth.Equiv.Sat { frames }) a b in
    line "%s check_sat: %s | %s" name (verdict v) !stats
  in
  List.iter
    (fun (mode, mname) ->
      let a, b = Pctrl.Controller.certification_pair mode in
      line "pctrl %s bound: %s" mname (Aig_util.structural_digest a);
      pair ("pctrl " ^ mname) a b;
      if mode = Pctrl.Controller.Cached then begin
        let mutated, site =
          Workload.Rng.mutate_bindings ~seed:8 (Pctrl.Controller.bindings mode)
        in
        let a', _ = Pctrl.Controller.certification_pair ~bindings:mutated mode in
        line "pctrl %s mutation 8 flips %s, bound: %s" mname site
          (Aig_util.structural_digest a');
        pair ~frames:6 ("pctrl " ^ mname ^ " mutation 8") a' b
      end)
    [ (Pctrl.Controller.Cached, "cached"); (Pctrl.Controller.Uncached, "uncached") ];
  for seed = 0 to 19 do
    let low =
      (Synth.Lower.run (Workload.Rand_design.generate ~seed)).Synth.Lower.aig
    in
    let swept = Synth.Sweep.run low in
    pair ~frames:8 (Printf.sprintf "design %d sweep" seed) low swept;
    pair ~frames:8
      (Printf.sprintf "design %d mutant" seed)
      low (Aig_util.invert_first_po swept)
  done;
  Buffer.contents b

let test_equiv_golden () = Golden.check "equiv.txt" (equiv_fingerprint ())

(* ----------------------------------------------------------------- main *)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "duplicate + tautology" `Quick
            test_duplicate_and_tautology;
          Alcotest.test_case "level-0 unit propagation" `Quick
            test_unit_propagation_level0;
          Alcotest.test_case "assumptions incremental" `Quick
            test_assumptions_incremental;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          prop_cdcl_vs_brute;
          prop_incremental_assumptions;
        ] );
      ( "tseitin",
        [
          prop_tseitin_matches_eval;
          Alcotest.test_case "constant folding" `Quick test_tseitin_const;
        ] );
      ( "equiv",
        [
          prop_engines_agree;
          prop_bdd_agrees;
          prop_flow_never_refuted;
          prop_sim_matches_oracle;
          Alcotest.test_case "combinational refutation" `Quick
            test_check_sat_comb_refute;
          Alcotest.test_case "induction proof" `Quick
            test_check_sat_induction_proof;
          Alcotest.test_case "BMC refutation" `Quick test_check_sat_bmc_refute;
          Alcotest.test_case "BMC bound is not a proof" `Quick
            test_check_sat_bmc_bound;
          Alcotest.test_case "BDD engine completes renamed proof" `Quick
            test_bdd_renamed_proof;
          Alcotest.test_case "BDD engine concrete witness" `Quick test_bdd_cex;
          Alcotest.test_case "repeated output names align" `Quick
            test_repeated_output_names;
          Alcotest.test_case "pctrl partial evaluation certified" `Quick
            test_pctrl_certified;
          Alcotest.test_case "pctrl mutation refuted" `Quick
            test_pctrl_mutation_refuted;
          Alcotest.test_case "golden equiv.txt" `Quick test_equiv_golden;
        ] );
    ]
