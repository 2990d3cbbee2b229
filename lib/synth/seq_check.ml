type result =
  | Equivalent
  | Counterexample of string
  | Gave_up of string

let max_bdd = 200_000
let max_iters = 10_000

(* Product machine of both netlists: variables 0..k-1 are the current
   joint state (ga's latches then gb's), 2k+ the inputs, shared by name
   and numbered as first met. Returns each graph's literal converter and
   the machine. *)
let product ~max_vars ga gb =
  let latches_a = Aig.latches ga and latches_b = Aig.latches gb in
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
  let lit_a = converter ga latches_a 0 in
  let lit_b = converter gb latches_b (List.length latches_a) in
  let next_a = List.map (fun n -> lit_a (Aig.latch_next ga n)) latches_a in
  let next_b = List.map (fun n -> lit_b (Aig.latch_next gb n)) latches_b in
  let init g n =
    let _, iv, _, _ = Aig.latch_info g n in
    iv
  in
  let init = List.map (init ga) latches_a @ List.map (init gb) latches_b in
  let machine =
    Symbolic.machine man ~max_bdd
      ~next:(Array.of_list (next_a @ next_b))
      ~init:(Array.of_list init) ~inputs:(Symbolic.Vars.fresh inputs)
  in
  (lit_a, lit_b, machine)

exception Differs of string

let run ?(max_vars = 64) ga gb =
  ignore (Equiv.check_interfaces "Seq_check.run" ga gb);
  let k = Aig.num_latches ga + Aig.num_latches gb in
  if 2 * k >= max_vars then Gave_up "too many latches"
  else
    match
      let lit_a, lit_b, machine = product ~max_vars ga gb in
      let miters =
        List.map
          (fun (name, la) ->
            let lb = List.assoc name (Aig.pos gb) in
            (name, Bdd.xor (lit_a la) (lit_b lb)))
          (Aig.pos ga)
      in
      let visit r =
        match
          List.find_opt (fun (_, m) -> not (Bdd.is_zero (Bdd.and_ r m))) miters
        with
        | Some (name, _) -> raise (Differs name)
        | None -> ()
      in
      Symbolic.reach ~visit ~max_iters machine
    with
    | _ -> Equivalent
    | exception Differs name -> Counterexample name
    | exception Symbolic.Overflow -> Gave_up "BDD effort cap exceeded"

(* ------------------------------------------------------------ SAT-backed *)

(* One [Equiv.check_sat] run read as a result: a refutation keeps its
   normalized witness, the other verdicts map to [proved] and [undecided]. *)
let sat_result ~frames ?on_stats ~proved ~undecided ga gb =
  match Equiv.check_sat ~frames ?on_stats ga gb with
  | Equiv.Refuted c -> Counterexample (Equiv.mismatch_to_string c.first)
  | Equiv.Proved -> proved
  | Equiv.Undecided s -> undecided s

(* [run_sat] keeps the BDDs for what they are good at — the reachable state
   set, computed once as a fixpoint — and hands the per-output obligations
   to the CDCL solver: both netlists are copied into one structurally
   hashed miter whose latch states are free pseudo-inputs constrained by
   the reach set R (encoded back into AIG muxes node-by-node, memoized on
   BDD uid). Since R is the exact reachable set, an UNSAT sweep is a
   complete proof and any SAT witness is a genuinely reachable
   disagreement; the concrete trace is then recovered by bounded model
   checking whose depth is covered by the fixpoint's iteration count.
   When the reach computation blows the BDD caps, the SAT engine's plain
   BMC ({!Equiv.check_sat}) takes over — refutation stays exact, proofs
   become bounded. *)

let run_sat ?(frames = 16) ?(max_vars = 64) ?on_stats ga gb =
  ignore (Equiv.check_interfaces "Seq_check.run_sat" ga gb);
  let fallback reason =
    sat_result ~frames ?on_stats ~proved:Equivalent
      ~undecided:(fun s -> Gave_up (reason ^ "; " ^ s))
      ga gb
  in
  let k = Aig.num_latches ga + Aig.num_latches gb in
  if 2 * k >= max_vars then fallback "too many latches for the BDD invariant"
  else
    match
      let _, _, machine = product ~max_vars ga gb in
      (* Reach fixpoint, no miter checks: R and the diameter bound. *)
      let reach, diameter = Symbolic.reach ~max_iters machine in
      (* Miter AIG over shared pseudo-inputs: "state#i" for joint state
         variable i, real input names for the PIs. *)
      let u = Aig.create () in
      let state_lit i = Equiv.shared_input u (Printf.sprintf "state#%d" i) in
      let copy g offset =
        let latch_idx = Hashtbl.create 16 in
        List.iteri
          (fun i n -> Hashtbl.replace latch_idx n (offset + i))
          (Aig.latches g);
        fst
          (Equiv.copy_side u g ~pi:Fun.id ~latch:(fun n ->
               state_lit (Hashtbl.find latch_idx n)))
      in
      let pos_a = copy ga 0 and pos_b = copy gb (Aig.num_latches ga) in
      (* Reach set R as an AIG: one mux per BDD node, memoized on uid. *)
      let bdd_cache = Hashtbl.create 256 in
      let rec of_bdd b =
        if Bdd.is_zero b then Aig.false_
        else if Bdd.is_one b then Aig.true_
        else
          match Hashtbl.find_opt bdd_cache (Bdd.uid b) with
          | Some l -> l
          | None ->
            let v = Bdd.top_var b in
            let hi = of_bdd (Bdd.cofactor b v true) in
            let lo = of_bdd (Bdd.cofactor b v false) in
            (* R depends on current state only: the image quantifies state
               and inputs away, then renames next state to current. *)
            let l = Aig.mux_ u (state_lit v) hi lo in
            Hashtbl.replace bdd_cache (Bdd.uid b) l;
            l
      in
      let s = Sat.Solver.create () in
      let cnf = Sat.Cnf.create s u in
      Sat.Cnf.constrain cnf (of_bdd reach) true;
      (* Obligations in output declaration order, each against the first
         same-named output of [gb]. *)
      let failed =
        Equiv.first_sat cnf u
          (List.map (fun (name, la) -> (name, la, List.assoc name pos_b)) pos_a)
      in
      (match on_stats with
       | Some f -> f (Sat.Solver.stats s)
       | None -> ());
      (match failed with
       | None -> Equivalent
       | Some name ->
         (* Genuinely disequivalent (R is exact). A concrete trace exists
            within the reach diameter; recover it with BMC when that bound
            is sane. *)
         let unreplayed =
           Counterexample
             (Printf.sprintf "output %s differs on a reachable state" name)
         in
         if diameter + 1 > 256 then unreplayed
         else
           sat_result ~frames:(diameter + 1) ?on_stats ~proved:unreplayed
             ~undecided:(fun _ -> unreplayed)
             ga gb)
    with
    | r -> r
    | exception Symbolic.Overflow -> fallback "BDD effort cap exceeded"
