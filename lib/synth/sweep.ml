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
   seed [run_once]'s fixpoint and merge maps, and anything not proven is
   left exactly as the syntactic pass would leave it. *)
let sat_analysis g sigs =
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
  let sat_known = Hashtbl.create 16 in
  List.iter (fun (n, init) -> Hashtbl.replace sat_known n init) !cands;
  (* Duplicate-latch class induction. *)
  let grouped = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if not (Hashtbl.mem sat_known n) then begin
        let _, init, reset, _ = Aig.latch_info g n in
        let key = (Simsig.node_signature sigs n, init, reset) in
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
    Hashtbl.iter
      (fun n init -> Sat.Cnf.constrain cnf (state_lit n) init)
      sat_known;
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
  let sat_rep = Hashtbl.create 16 in
  List.iter
    (fun (rep, members) ->
      List.iter (fun m -> Hashtbl.replace sat_rep m rep) !members)
    classes;
  (sat_known, sat_rep)

let run_once ?sigs ?sat_known ?sat_rep g =
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
  (* Fixpoint: which (non-config) latches are provably constant? Seeded
     with any SAT-proven constants, which the syntactic pass then
     propagates. *)
  let known : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  (match sat_known with
   | Some t -> Hashtbl.iter (fun n v -> Hashtbl.replace known n v) t
   | None -> ());
  let rec const_of_lit memo l =
    let n = Aig.node_of_lit l in
    let v =
      match Aig.kind g n with
      | Aig.Const -> Some false
      | Aig.Pi -> None
      | Aig.Latch -> Hashtbl.find_opt known n
      | Aig.And ->
        (match Hashtbl.find_opt memo n with
         | Some v -> v
         | None ->
           let f0, f1 = Aig.fanins g n in
           let a = const_of_lit memo f0 and b = const_of_lit memo f1 in
           let v =
             match a, b with
             | Some false, _ | _, Some false -> Some false
             | Some true, Some true -> Some true
             | Some true, None | None, Some true | None, None -> None
           in
           Hashtbl.replace memo n v;
           v)
    in
    match v with
    | Some v -> Some (if Aig.is_complemented l then not v else v)
    | None -> None
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let memo = Hashtbl.create 256 in
    List.iter
      (fun n ->
        let _, init, _, is_config = Aig.latch_info g n in
        if (not is_config) && may_be_const n && not (Hashtbl.mem known n)
        then begin
          let d = Aig.latch_next g n in
          let folds =
            if d = Aig.lit_of_node n false then true (* self-hold *)
            else
              match const_of_lit memo d with
              | Some v -> v = init
              | None -> false
          in
          if folds then begin
            Hashtbl.replace known n init;
            changed := true
          end
        end)
      (Aig.latches g)
  done;
  (* Merge duplicate latches (same next literal, init, reset). Seeded with
     SAT-proven equal pairs; a latch already represented by the solver's
     verdict is skipped here so it cannot become a syntactic class
     representative (chains stay representative-terminated and [resolve]
     walks them). *)
  let representative : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (match sat_rep with
   | Some t -> Hashtbl.iter (fun m r -> Hashtbl.replace representative m r) t
   | None -> ());
  let by_signature = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let _, init, reset, is_config = Aig.latch_info g n in
      if
        (not is_config)
        && (not (Hashtbl.mem known n))
        && not (Hashtbl.mem representative n)
      then begin
        let signature = (Aig.latch_next g n, init, reset) in
        match Hashtbl.find_opt by_signature signature with
        | Some rep -> Hashtbl.replace representative n rep
        | None -> Hashtbl.replace by_signature signature n
      end)
    (Aig.latches g);
  (* Which latches are live (reachable from the POs)? One DFS from the
     outputs: each latch leaf makes its representative live, and a newly
     live latch's next-state cone joins the walk. *)
  let rec resolve n =
    match Hashtbl.find_opt representative n with
    | Some r -> resolve r
    | None -> n
  in
  let visited = Array.make (Aig.num_nodes g) false in
  let live = Array.make (Aig.num_nodes g) false in
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
      if (not (Hashtbl.mem known n)) && not live.(r) then begin
        live.(r) <- true;
        push (Aig.latch_next g r)
      end
  done;
  (* Rebuild: live unmerged latches are kept; known latches become their
     constant, merged ones their representative, and a dead latch a fresh
     latch, so the copy stays total. *)
  let kept n = live.(n) && not (Hashtbl.mem representative n) in
  let ng = Aig.create () in
  let copy =
    Aig.rebuild g ~into:ng ~keep_latch:kept ~node:(fun copy n ->
        if Aig.kind g n <> Aig.Latch then None
        else
          match Hashtbl.find_opt known n with
          | Some v -> Some (if v then Aig.true_ else Aig.false_)
          | None ->
            let rep = resolve n in
            if rep <> n then Some (copy (Aig.lit_of_node rep false))
            else
              let name, init, reset, is_config = Aig.latch_info g n in
              Some (Aig.latch ng name ~init ~reset ~is_config))
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
      (* A couple of packed random-simulation rounds cost O(cycles * n)
         word ops and typically disqualify most latches from the
         fixpoint; skipped for latch-free graphs (nothing to filter) and
         when compilation is impossible (e.g. a next-state never set —
         the fixpoint itself would raise on those anyway). *)
      let sigs =
        if Aig.num_latches g < 2 then None
        else match Simsig.compute g with
          | s -> Some s
          | exception Invalid_argument _ -> None
      in
      let sat_known, sat_rep =
        match (sat, sigs) with
        | true, Some s ->
          let k, r = sat_analysis g s in
          (Some k, Some r)
        | _ -> (None, None)
      in
      let g' = run_once ?sigs ?sat_known ?sat_rep g in
      if Aig.num_latches g' = Aig.num_latches g && Aig.num_ands g' = Aig.num_ands g
      then g'
      else go (i + 1) g'
    end
  in
  go 0 g
