(* SAT-validated strengthening (enabled by [run ~sat:true]): simulation
   signatures propose, the solver disposes.

   - Constant latches: every non-config latch the signatures still allow as
     constant is checked by simultaneous induction, greatest-fixpoint
     style — assume ALL candidates hold their init value (unit constraints
     on their state variables), then ask the solver for a state/input where
     some candidate's next-state leaves init. Satisfiable candidates are
     dropped and the induction re-runs (a fresh solver, since unit clauses
     cannot be retracted) until it is closed; the survivors are genuinely
     constant on every reachable trajectory.

   - Duplicate latches: non-constant latches grouped by (state signature,
     init, reset) are candidate-equal classes. Assuming all class
     equalities (and the proven constants), each member must provably track
     its representative's next-state; members with a satisfiable
     disagreement leave the class and the induction re-runs. This catches
     latches whose next-state functions are logically equal but
     structurally different — invisible to the syntactic merge below.

   Both inductions only strengthen the syntactic passes: their verdicts
   fill [const] and [rep] before [run_once]'s fixpoint and merge extend
   them, and anything not proven is left exactly as the syntactic pass
   would leave it. *)
let sat_analysis g sigs ~const ~rep =
  let latches =
    List.filter
      (fun n ->
        let _, _, _, is_config = Aig.latch_info g n in
        not is_config)
      (Aig.latches g)
  in
  let state_lit n = Aig.lit_of_node n false in
  (* Constant-latch induction. *)
  let cands =
    ref
      (List.filter_map
         (fun n ->
           let _, init, _, _ = Aig.latch_info g n in
           if Simsig.latch_may_be_const sigs n then Some (n, init) else None)
         latches)
  in
  let stable = ref false in
  while (not !stable) && !cands <> [] do
    let s = Sat.Solver.create () in
    let cnf = Sat.Cnf.create s g in
    List.iter
      (fun (n, init) -> Sat.Cnf.constrain cnf (state_lit n) init)
      !cands;
    let keep, drop =
      List.partition
        (fun (n, init) ->
          let sl = Sat.Cnf.lit cnf (Aig.latch_next g n) in
          Sat.Solver.solve ~assumptions:[ (if init then -sl else sl) ] s
          = Sat.Solver.Unsat)
        !cands
    in
    if drop = [] then stable := true else cands := keep
  done;
  List.iter (fun (n, init) -> const.(n) <- Bool.to_int init) !cands;
  (* Duplicate-latch class induction. *)
  let grouped = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if const.(n) < 0 then begin
        let _, init, reset, _ = Aig.latch_info g n in
        let key = (Simsig.latch_signature sigs n, init, reset) in
        let prev = try Hashtbl.find grouped key with Not_found -> [] in
        Hashtbl.replace grouped key (n :: prev)
      end)
    latches;
  let classes =
    Hashtbl.fold
      (fun _ ns acc ->
        match List.rev ns with
        | rep :: (_ :: _ as members) -> (rep, ref members) :: acc
        | _ -> acc)
      grouped []
  in
  let stable = ref (classes = []) in
  while not !stable do
    let s = Sat.Solver.create () in
    let cnf = Sat.Cnf.create s g in
    List.iter
      (fun (n, init) -> Sat.Cnf.constrain cnf (state_lit n) init)
      !cands;
    List.iter
      (fun (rep, members) ->
        let lr = Sat.Cnf.lit cnf (state_lit rep) in
        List.iter
          (fun m ->
            let lm = Sat.Cnf.lit cnf (state_lit m) in
            Sat.Solver.add_clause s [ -lr; lm ];
            Sat.Solver.add_clause s [ lr; -lm ])
          !members)
      classes;
    stable := true;
    List.iter
      (fun (rep, members) ->
        let keep, drop =
          List.partition
            (fun m ->
              let sa = Sat.Cnf.lit cnf (Aig.latch_next g rep) in
              let sb = Sat.Cnf.lit cnf (Aig.latch_next g m) in
              let x = Sat.Solver.new_var s in
              (* x -> (next(rep) xor next(m)) *)
              Sat.Solver.add_clause s [ -x; sa; sb ];
              Sat.Solver.add_clause s [ -x; -sa; -sb ];
              Sat.Solver.solve ~assumptions:[ x ] s = Sat.Solver.Unsat)
            !members
        in
        if drop <> [] then stable := false;
        members := keep)
      classes
  done;
  List.iter
    (fun (r, members) -> List.iter (fun m -> rep.(m) <- r) !members)
    classes

(* Latch facts live in two node-indexed arrays: [const.(n)] is -1 while
   latch [n] is not known constant, else its value as 0/1; [rep.(n)] is
   the latch [n] merges into, or -1. *)
let run_once ~sat g =
  let num_nodes = Aig.num_nodes g in
  let const = Array.make num_nodes (-1) in
  let rep = Array.make num_nodes (-1) in
  (* A couple of packed random-simulation rounds cost O(cycles * n) word
     ops and typically disqualify most latches from the fixpoint. The
     syntactic pass skips them below two latches; the SAT inductions need
     them for any latch. Compilation fails when a next-state was never
     set, and the fixpoint itself raises on those graphs anyway. *)
  let sigs =
    if Aig.num_latches g < (if sat then 1 else 2) then None
    else match Simsig.compute g with
      | s -> Some s
      | exception Invalid_argument _ -> None
  in
  (match sigs with
   | Some s when sat -> sat_analysis g s ~const ~rep
   | _ -> ());
  (* Simulation-guided candidate filter: a latch observed leaving its
     init value under packed random simulation can never satisfy the
     constant criterion below (which implies the latch holds init on
     every reachable trajectory), so the fixpoint skips it outright.
     Everything the filter keeps is still verified exactly — signatures
     only refute, never prove. *)
  let may_be_const =
    match sigs with
    | Some s -> fun n -> Simsig.latch_may_be_const s n
    | None -> fun _ -> true
  in
  (* Fixpoint: which (non-config) latches are provably constant? Extends
     any SAT-proven constants. [memo.(n)] caches an And node's value as
     [const] does (-1 not constant), with -2 for not yet evaluated; it is
     refilled each round, since [const] grows within one. *)
  let memo = Array.make num_nodes (-2) in
  let rec const_of_node n =
    match Aig.kind g n with
    | Aig.Const -> 0
    | Aig.Pi -> -1
    | Aig.Latch -> const.(n)
    | Aig.And ->
      if memo.(n) = -2 then begin
        let f0, f1 = Aig.fanins g n in
        let a = const_of_lit f0 and b = const_of_lit f1 in
        memo.(n) <-
          (if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else -1)
      end;
      memo.(n)
  and const_of_lit l =
    let v = const_of_node (Aig.node_of_lit l) in
    if v >= 0 && Aig.is_complemented l then 1 - v else v
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.fill memo 0 num_nodes (-2);
    List.iter
      (fun n ->
        let _, init, _, is_config = Aig.latch_info g n in
        if (not is_config) && may_be_const n && const.(n) < 0 then begin
          let d = Aig.latch_next g n in
          (* A self-holding latch folds too. *)
          if d = Aig.lit_of_node n false || const_of_lit d = Bool.to_int init
          then begin
            const.(n) <- Bool.to_int init;
            changed := true
          end
        end)
      (Aig.latches g)
  done;
  (* Merge duplicate latches (same next literal, init, reset), extending
     any SAT-proven equal pairs; a latch already represented by the
     solver's verdict is skipped here so it cannot become a syntactic
     class representative (chains stay representative-terminated and
     [resolve] walks them). *)
  let by_signature = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let _, init, reset, is_config = Aig.latch_info g n in
      if (not is_config) && const.(n) < 0 && rep.(n) < 0 then begin
        let signature = (Aig.latch_next g n, init, reset) in
        match Hashtbl.find_opt by_signature signature with
        | Some r -> rep.(n) <- r
        | None -> Hashtbl.replace by_signature signature n
      end)
    (Aig.latches g);
  (* Which latches are live (reachable from the POs)? One DFS from the
     outputs: each latch leaf makes its representative live, and a newly
     live latch's next-state cone joins the walk. *)
  let rec resolve n = if rep.(n) < 0 then n else resolve rep.(n) in
  let visited = Array.make num_nodes false in
  let live = Array.make num_nodes false in
  let work = Stack.create () in
  let push l =
    let n = Aig.node_of_lit l in
    if not visited.(n) then begin
      visited.(n) <- true;
      Stack.push n work
    end
  in
  List.iter (fun (_, l) -> push l) (Aig.pos g);
  while not (Stack.is_empty work) do
    let n = Stack.pop work in
    match Aig.kind g n with
    | Aig.Const | Aig.Pi -> ()
    | Aig.And ->
      let f0, f1 = Aig.fanins g n in
      push f0;
      push f1
    | Aig.Latch ->
      let r = resolve n in
      if const.(n) < 0 && not live.(r) then begin
        live.(r) <- true;
        push (Aig.latch_next g r)
      end
  done;
  (* Rebuild: live unmerged latches are kept; known latches become their
     constant and merged ones their representative. The copy walks the
     cones the liveness DFS walked, so it reaches no other latch. *)
  let kept n = live.(n) && rep.(n) < 0 in
  let ng = Aig.create () in
  let copy =
    Aig.rebuild g ~into:ng ~keep_latch:kept ~node:(fun copy n ->
        if Aig.kind g n <> Aig.Latch then None
        else if const.(n) >= 0 then
          Some (if const.(n) = 1 then Aig.true_ else Aig.false_)
        else if rep.(n) >= 0 then Some (copy (Aig.lit_of_node (resolve n) false))
        else invalid_arg "Sweep: the copy reached a dead latch")
  in
  List.iter (fun (name, l) -> Aig.po ng name (copy l)) (Aig.pos g);
  List.iter
    (fun n ->
      if kept n then
        Aig.set_next ng (copy (Aig.lit_of_node n false)) (copy (Aig.latch_next g n)))
    (Aig.latches g);
  ng

(* Merging can expose new constants and dangling latches; iterate until the
   graph stops shrinking. *)
let run ?(sat = false) g =
  let rec go i g =
    if i > 8 then g
    else begin
      let g' = run_once ~sat g in
      if Aig.num_latches g' = Aig.num_latches g && Aig.num_ands g' = Aig.num_ands g
      then g'
      else go (i + 1) g'
    end
  in
  go 0 g
