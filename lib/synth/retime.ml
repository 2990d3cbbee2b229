(* One forward round: rebuild the graph; every AND whose fanins are both
   movable latch outputs becomes a fresh latch. The new latch's next-state
   is built from the *copied* next-state functions of its sources. *)

let movable g l =
  let n = Aig.node_of_lit l in
  match Aig.kind g n with
  | Aig.Latch ->
    let _, _, reset, is_config = Aig.latch_info g n in
    reset = Rtl.Design.No_reset && not is_config
  | Aig.Const | Aig.Pi | Aig.And -> false

let round serial g =
  let moved = ref 0 in
  let ng = Aig.create () in
  (* New latches created by the move, with their (old-graph) next literal to
     connect at the end: (new latch q, old d0, old d1) where d0/d1 are
     complement-adjusted next-state literals of the source latches. *)
  let pending : (Aig.lit * Aig.lit * Aig.lit) list ref = ref [] in
  let copy =
    Aig.rebuild g ~into:ng ~node:(fun _ n ->
        let f0, f1 = Aig.fanins g n in
        if movable g f0 && movable g f1 then begin
          let source f =
            let ln = Aig.node_of_lit f in
            let _, init, _, _ = Aig.latch_info g ln in
            let d = Aig.latch_next g ln in
            let init = if Aig.is_complemented f then not init else init in
            let d = if Aig.is_complemented f then Aig.not_ d else d in
            (init, d)
          in
          let i0, d0 = source f0 and i1, d1 = source f1 in
          incr moved;
          let q =
            Aig.latch ng
              (Printf.sprintf "rt%d_%d" serial n)
              ~init:(i0 && i1) ~reset:Rtl.Design.No_reset ~is_config:false
          in
          pending := (q, d0, d1) :: !pending;
          Some q
        end
        else None)
  in
  List.iter (fun (name, l) -> Aig.po ng name (copy l)) (Aig.pos g);
  List.iter
    (fun n ->
      Aig.set_next ng (copy (Aig.lit_of_node n false)) (copy (Aig.latch_next g n)))
    (Aig.latches g);
  List.iter (fun (q, d0, d1) -> Aig.set_next ng q (Aig.and_ ng (copy d0) (copy d1)))
    !pending;
  (!moved, ng)

(* Each round is followed by a sweep; stop at a fixpoint or after this
   many rounds. *)
let max_rounds = 512

let run g =
  let rec go i g =
    if i >= max_rounds then g
    else begin
      let moved, g' = round i g in
      let g' = Sweep.run g' in
      if moved = 0 then g' else go (i + 1) g'
    end
  in
  go 0 g
