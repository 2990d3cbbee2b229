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

type machine = { k : int; trans : Bdd.t; init : Bdd.t; quantified : int list }

let machine man ~max_bdd ~next ~init ~inputs =
  let k = Array.length next in
  let conj f a =
    snd
      (Array.fold_left
         (fun (i, acc) x -> (i + 1, Bdd.and_ acc (f i x)))
         (0, Bdd.one man) a)
  in
  let trans = conj (fun i f -> Bdd.iff (Bdd.var man (k + i)) f) next in
  if Bdd.size trans > max_bdd then overflow ();
  let init =
    conj (fun i b -> if b then Bdd.var man i else Bdd.nvar man i) init
  in
  { k; trans; init; quantified = List.init k Fun.id @ inputs }

let image m r =
  Obs.Metrics.incr m_image_steps;
  Bdd.rename (Bdd.exists m.quantified (Bdd.and_ m.trans r)) (fun v -> v - m.k)

let reach ?(visit = ignore) ~max_iters m =
  let rec go i r =
    if i > max_iters then overflow ();
    visit r;
    let r' = Bdd.or_ r (image m r) in
    if Bdd.equal r r' then (r, i) else go (i + 1) r'
  in
  go 0 m.init
