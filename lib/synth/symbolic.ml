exception Overflow

let m_image_steps = Obs.Metrics.counter "synth.symbolic.image_steps"
let m_overflow = Obs.Metrics.counter "synth.symbolic.overflow"

let overflow () =
  Obs.Metrics.incr m_overflow;
  raise Overflow

module Vars = struct
  type 'a t = {
    tbl : ('a, int) Hashtbl.t;
    first : int;
    max_vars : int;
    mutable next : int;
  }

  let create ~max_vars ~first bound =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i key -> Hashtbl.replace tbl key i) bound;
    { tbl; first; max_vars; next = first }

  let var t key =
    match Hashtbl.find_opt t.tbl key with
    | Some v -> v
    | None ->
      if t.next >= t.max_vars then overflow ();
      let v = t.next in
      t.next <- v + 1;
      Hashtbl.replace t.tbl key v;
      v

  let fresh t = List.init (t.next - t.first) (fun j -> t.first + j)
end

let converter man ~max_bdd ~leaf g =
  (* [None] marks a node that overflowed. *)
  let memo = Hashtbl.create 256 in
  let rec lit l =
    let b = node (Aig.node_of_lit l) in
    if Aig.is_complemented l then Bdd.not_ b else b
  and node n =
    match Hashtbl.find_opt memo n with
    | Some (Some b) -> b
    | Some None -> raise Overflow
    | None ->
      (match build n with
       | b ->
         Hashtbl.replace memo n (Some b);
         b
       | exception Overflow ->
         Hashtbl.replace memo n None;
         raise Overflow)
  and build n =
    match Aig.kind g n with
    | Aig.Const -> Bdd.zero man
    | Aig.Pi | Aig.Latch -> Bdd.var man (leaf n)
    | Aig.And ->
      let f0, f1 = Aig.fanins g n in
      let b = Bdd.and_ (lit f0) (lit f1) in
      if Bdd.size b > max_bdd then overflow ();
      b
  in
  lit

let value_set man ~bit values =
  List.fold_left
    (fun acc v ->
      let minterm = Bitvec.fold_bits (fun i b acc -> Bdd.and_ acc (bit i b)) in
      Bdd.or_ acc (minterm v (Bdd.one man)))
    (Bdd.zero man) values

(* Inside a machine current-state bit [i] is variable [2i] and its next
   state [2i+1]; inputs keep their numbers (from [2k]). [parts] pairs each
   partition [v_{2i+1} <-> next.(i)] with the variables to quantify right
   after conjoining it: those it is the last to mention. Variables that no
   partition mentions go with the first. *)
type machine = {
  max_bdd : int;
  init : Bdd.t;
  parts : (Bdd.t * int list) list Lazy.t;
}

let partitions man ~next ~inputs =
  let k = Array.length next in
  let spread v = if v < k then 2 * v else v in
  let parts =
    List.mapi
      (fun i f -> Bdd.iff (Bdd.var man ((2 * i) + 1)) (Bdd.rename f spread))
      (Array.to_list next)
  in
  let last = Hashtbl.create 64 in
  List.iteri
    (fun j t -> List.iter (fun v -> Hashtbl.replace last v j) (Bdd.support t))
    parts;
  let quantified = List.init k (fun i -> 2 * i) @ inputs in
  let at j v = Option.value (Hashtbl.find_opt last v) ~default:0 = j in
  List.mapi (fun j t -> (t, List.filter (at j) quantified)) parts

let machine man ~max_bdd ~next ~init ~inputs =
  let init =
    List.fold_left Bdd.and_ (Bdd.one man)
      (List.mapi
         (fun i b -> if b then Bdd.var man i else Bdd.nvar man i)
         (Array.to_list init))
  in
  { max_bdd; init; parts = lazy (partitions man ~next ~inputs) }

let image m r =
  Obs.Metrics.incr m_image_steps;
  let step acc (t, vars) =
    let acc = Bdd.and_exists vars acc t in
    if Bdd.size acc > m.max_bdd then overflow ();
    acc
  in
  let r = Bdd.rename r (fun v -> 2 * v) in
  Bdd.rename (List.fold_left step r (Lazy.force m.parts)) (fun v -> v / 2)

(* Only the frontier's image can add states: the image of [r] minus the
   frontier is already inside [r]. *)
let reach ?(visit = ignore) ~max_iters m =
  let rec go i r frontier =
    if i > max_iters then overflow ();
    visit r;
    let r' = Bdd.or_ r (image m frontier) in
    if Bdd.equal r r' then (r, i)
    else go (i + 1) r' (Bdd.and_ r' (Bdd.not_ r))
  in
  go 0 m.init m.init
