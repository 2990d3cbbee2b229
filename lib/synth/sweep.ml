(* Latch facts live in two node-indexed arrays: [const.(n)] is -1 while
   latch [n] is not known constant, else its value as 0/1; [rep.(n)] is
   the latch [n] merges into, or -1. *)
let run_once g =
  let num_nodes = Aig.num_nodes g in
  let const = Array.make num_nodes (-1) in
  let rep = Array.make num_nodes (-1) in
  (* Fixpoint: which (non-config) latches are provably constant? The
     answer is the least fixpoint, so latch order only decides in which
     round a fold is found. [memo.(n)] caches an And node's value as [const] does (-1 not
     constant), with -2 for not yet evaluated; it is refilled each round,
     since [const] grows within one. *)
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
        if (not is_config) && const.(n) < 0 then begin
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
  (* Merge duplicate latches (same next literal, init, reset) into the
     first of their class, so every representative is a class head. *)
  let by_signature = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let _, init, reset, is_config = Aig.latch_info g n in
      if (not is_config) && const.(n) < 0 then begin
        let signature = (Aig.latch_next g n, init, reset) in
        match Hashtbl.find_opt by_signature signature with
        | Some r -> rep.(n) <- r
        | None -> Hashtbl.replace by_signature signature n
      end)
    (Aig.latches g);
  (* Which latches are live (reachable from the POs)? One DFS from the
     outputs: each latch leaf makes its representative live, and a newly
     live latch's next-state cone joins the walk. *)
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
      let r = if rep.(n) < 0 then n else rep.(n) in
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
        else if rep.(n) >= 0 then Some (copy (Aig.lit_of_node rep.(n) false))
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
let run g =
  let rec go i g =
    if i > 8 then g
    else begin
      let g' = run_once g in
      if Aig.num_latches g' = Aig.num_latches g && Aig.num_ands g' = Aig.num_ands g
      then g'
      else go (i + 1) g'
    end
  in
  go 0 g
