(* Hash-consed ROBDDs. Every node carries the manager's stamp so cross-manager
   operations can be rejected early. Reduction invariants: [lo != hi] for every
   internal node, and each (var, lo, hi) triple exists at most once, so
   pointer equality is semantic equality. *)

type node =
  | Leaf of bool
  | Node of { id : int; var : int; lo : node; hi : node }

type man = {
  stamp : int;
  unique : (int * int * int, node) Hashtbl.t;
  ite_cache : (int * int * int, node) Hashtbl.t;
  mutable next_id : int;
}

type t = { man : man; node : node }

(* Atomic: managers are created from synthesis jobs running on multiple
   domains, and duplicate stamps would defeat the cross-manager check. *)
let next_stamp = Atomic.make 0

let make_man () =
  { stamp = Atomic.fetch_and_add next_stamp 1 + 1;
    unique = Hashtbl.create 1024;
    ite_cache = Hashtbl.create 1024;
    next_id = 2 }

let node_id = function
  | Leaf false -> 0
  | Leaf true -> 1
  | Node { id; _ } -> id

let node_var = function
  | Leaf _ -> max_int
  | Node { var; _ } -> var

let mk m var lo hi =
  if lo == hi then lo
  else begin
    let key = (var, node_id lo, node_id hi) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
      let n = Node { id = m.next_id; var; lo; hi } in
      m.next_id <- m.next_id + 1;
      Hashtbl.add m.unique key n;
      n
  end

let zero m = { man = m; node = Leaf false }
let one m = { man = m; node = Leaf true }

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  { man = m; node = mk m i (Leaf false) (Leaf true) }

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  { man = m; node = mk m i (Leaf true) (Leaf false) }

let same_man a b =
  if a.man.stamp <> b.man.stamp then invalid_arg "Bdd: manager mismatch"

(* Cofactors of [n] with respect to variable [v], where [v <= node_var n]. *)
let branch v n =
  match n with
  | Leaf _ -> (n, n)
  | Node { var; lo; hi; _ } -> if var = v then (lo, hi) else (n, n)

let rec ite_node m f g h =
  match f with
  | Leaf true -> g
  | Leaf false -> h
  | Node _ ->
    if g == h then g
    else if g == Leaf true && h == Leaf false then f
    else begin
      let key = (node_id f, node_id g, node_id h) in
      match Hashtbl.find_opt m.ite_cache key with
      | Some r -> r
      | None ->
        let v = min (node_var f) (min (node_var g) (node_var h)) in
        let f0, f1 = branch v f and g0, g1 = branch v g and h0, h1 = branch v h in
        let r = mk m v (ite_node m f0 g0 h0) (ite_node m f1 g1 h1) in
        Hashtbl.add m.ite_cache key r;
        r
    end

let ite f g h =
  same_man f g; same_man f h;
  { man = f.man; node = ite_node f.man f.node g.node h.node }

let not_ f = { man = f.man; node = ite_node f.man f.node (Leaf false) (Leaf true) }
let and_ f g = same_man f g; { man = f.man; node = ite_node f.man f.node g.node (Leaf false) }
let or_ f g = same_man f g; { man = f.man; node = ite_node f.man f.node (Leaf true) g.node }
let xor f g = same_man f g; { man = f.man; node = ite_node f.man f.node (not_ g).node g.node }
let imp f g = same_man f g; { man = f.man; node = ite_node f.man f.node g.node (Leaf true) }
let iff f g = not_ (xor f g)

let equal f g = same_man f g; f.node == g.node

let uid f = node_id f.node
let is_zero f = f.node == Leaf false
let is_one f = f.node == Leaf true
let is_const f = is_zero f || is_one f

let top_var f =
  match f.node with
  | Leaf _ -> invalid_arg "Bdd.top_var: constant"
  | Node { var; _ } -> var

let rec cofactor_node m n v b =
  match n with
  | Leaf _ -> n
  | Node { var; lo; hi; _ } ->
    if var > v then n
    else if var = v then (if b then hi else lo)
    else mk m var (cofactor_node m lo v b) (cofactor_node m hi v b)

let cofactor f v b = { man = f.man; node = cofactor_node f.man f.node v b }

(* Per-call memos of [constrain] and [and_exists], keyed on a node-id pair
   packed into one int (ids stay far below 2^31). *)
module Memo = Hashtbl.Make (Int)

(* The memo only skips revisits of an (f, c) pair: the recursion order is
   unchanged and [mk] is hash-consed, so every node comes out with the id
   the unmemoized walk gives it, in time linear in the BDD sizes rather
   than in their path counts. *)
let constrain f c =
  same_man f c;
  let m = f.man in
  let memo = Memo.create 256 in
  let rec go f c =
    match c with
    | Leaf true -> f
    | Leaf false -> invalid_arg "Bdd.constrain: zero constraint"
    | Node _ ->
      match f with
      | Leaf _ -> f
      | Node _ ->
        let key = (node_id f lsl 31) lor node_id c in
        match Memo.find_opt memo key with
        | Some r -> r
        | None ->
          let v = min (node_var f) (node_var c) in
          let f0, f1 = branch v f and c0, c1 = branch v c in
          let r =
            if c0 == Leaf false then go f1 c1
            else if c1 == Leaf false then go f0 c0
            else mk m v (go f0 c0) (go f1 c1)
          in
          Memo.add memo key r;
          r
  in
  { man = m; node = go f.node c.node }

let and_exists vars f g =
  same_man f g;
  let m = f.man in
  let last = List.fold_left max (-1) vars in
  let quantified = Array.make (last + 1) false in
  List.iter
    (fun v ->
      if v < 0 then invalid_arg "Bdd.and_exists: negative variable";
      quantified.(v) <- true)
    vars;
  let memo = Memo.create 256 in
  let rec go f g =
    match (f, g) with
    | Leaf false, _ | _, Leaf false -> Leaf false
    | _ ->
      let v = min (node_var f) (node_var g) in
      (* Nothing left to quantify below [v]: a plain, globally cached AND. *)
      if v > last then ite_node m f g (Leaf false)
      else begin
        let a = node_id f and b = node_id g in
        let key = if a <= b then (a lsl 31) lor b else (b lsl 31) lor a in
        match Memo.find_opt memo key with
        | Some r -> r
        | None ->
          let f0, f1 = branch v f and g0, g1 = branch v g in
          let r =
            if quantified.(v) then
              let r0 = go f0 g0 in
              if r0 == Leaf true then r0 else ite_node m r0 (Leaf true) (go f1 g1)
            else mk m v (go f0 g0) (go f1 g1)
          in
          Memo.add memo key r;
          r
      end
  in
  { man = m; node = go f.node g.node }

let exists vars f = and_exists vars f (one f.man)
let forall vars f = not_ (exists vars (not_ f))

let support f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go = function
    | Leaf _ -> ()
    | Node { id; var; lo; hi; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        Hashtbl.replace vars var ();
        go lo; go hi
      end
  in
  go f.node;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort Stdlib.compare

let rename f map =
  let m = f.man in
  let tbl = Hashtbl.create 64 in
  let rec go n =
    match n with
    | Leaf _ -> n
    | Node { id; var; lo; hi; _ } ->
      match Hashtbl.find_opt tbl id with
      | Some r -> r
      | None ->
        let var' = map var in
        if var' < 0 then invalid_arg "Bdd.rename: negative variable";
        let lo' = go lo and hi' = go hi in
        (* Monotonicity keeps var' above the renamed children tops. *)
        if node_var lo' <= var' || node_var hi' <= var' then
          invalid_arg "Bdd.rename: mapping not order-preserving";
        let r = mk m var' lo' hi' in
        Hashtbl.add tbl id r;
        r
  in
  { man = m; node = go f.node }

let eval f assignment =
  let rec go = function
    | Leaf b -> b
    | Node { var; lo; hi; _ } -> go (if assignment var then hi else lo)
  in
  go f.node

let sat_count f ~nvars =
  let tbl = Hashtbl.create 64 in
  (* count n = assignments of variables >= node_var n satisfying n,
     normalized as if node_var n were the next variable. *)
  let rec count n =
    match n with
    | Leaf false -> 0.0
    | Leaf true -> 1.0
    | Node { id; var; lo; hi; _ } ->
      if var >= nvars then invalid_arg "Bdd.sat_count: support exceeds nvars";
      match Hashtbl.find_opt tbl id with
      | Some c -> c
      | None ->
        let below sub =
          let gap = node_var sub - var - 1 in
          let gap = if node_var sub = max_int then nvars - var - 1 else gap in
          count sub *. (2.0 ** float_of_int gap)
        in
        let c = below lo +. below hi in
        Hashtbl.add tbl id c;
        c
  in
  match f.node with
  | Leaf false -> 0.0
  | Leaf true -> 2.0 ** float_of_int nvars
  | Node { var; _ } -> count f.node *. (2.0 ** float_of_int var)

let sat_seq f ~nvars =
  let all = Seq.filter (fun v -> eval f (Bitvec.get v)) (Bitvec.all_values nvars) in
  all

let of_minterms m ~nvars vs =
  let minterm v =
    if Bitvec.width v <> nvars then invalid_arg "Bdd.of_minterms: width mismatch";
    Bitvec.fold_bits
      (fun i b acc -> and_ acc (if b then var m i else nvar m i))
      v (one m)
  in
  List.fold_left (fun acc v -> or_ acc (minterm v)) (zero m) vs

let of_fun m ~nvars f =
  if nvars > 20 then invalid_arg "Bdd.of_fun: nvars too large";
  Seq.fold_left
    (fun acc v ->
      if f v then or_ acc (of_minterms m ~nvars [ v ]) else acc)
    (zero m) (Bitvec.all_values nvars)

let size f =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Leaf _ -> ()
    | Node { id; lo; hi; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        go lo; go hi
      end
  in
  go f.node;
  Hashtbl.length seen
