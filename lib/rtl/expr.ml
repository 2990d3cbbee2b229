type unop = Not | Red_and | Red_or | Red_xor

type binop = And | Or | Xor | Add | Sub | Eq | Ne | Ult

type t =
  | Const of Bitvec.t
  | Signal of Signal.t
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t
  | Concat of t list
  | Slice of { e : t; hi : int; lo : int }
  | Table_read of { table : string; addr : t; width : int }

let rec width = function
  | Const v -> Bitvec.width v
  | Signal s -> s.Signal.width
  | Unop (Not, e) -> width e
  | Unop ((Red_and | Red_or | Red_xor), _) -> 1
  | Binop ((And | Or | Xor | Add | Sub), a, _) -> width a
  | Binop ((Eq | Ne | Ult), _, _) -> 1
  | Mux (_, a, _) -> width a
  | Concat es -> List.fold_left (fun acc e -> acc + width e) 0 es
  | Slice { hi; lo; _ } -> hi - lo + 1
  | Table_read { width; _ } -> width

let const v = Const v
let of_int ~width v = Const (Bitvec.of_int ~width v)
let signal s = Signal s

let same_width name a b =
  if width a <> width b then
    invalid_arg (Printf.sprintf "Expr.%s: width mismatch (%d vs %d)" name (width a) (width b))

let not_ e = Unop (Not, e)
let red_and e = Unop (Red_and, e)
let red_or e = Unop (Red_or, e)
let red_xor e = Unop (Red_xor, e)
let and_ a b = same_width "and_" a b; Binop (And, a, b)
let or_ a b = same_width "or_" a b; Binop (Or, a, b)
let xor a b = same_width "xor" a b; Binop (Xor, a, b)
let add a b = same_width "add" a b; Binop (Add, a, b)
let sub a b = same_width "sub" a b; Binop (Sub, a, b)
let eq a b = same_width "eq" a b; Binop (Eq, a, b)
let ne a b = same_width "ne" a b; Binop (Ne, a, b)
let ult a b = same_width "ult" a b; Binop (Ult, a, b)

let mux sel a b =
  if width sel <> 1 then invalid_arg "Expr.mux: selector must have width 1";
  same_width "mux" a b;
  Mux (sel, a, b)

let concat es =
  if es = [] then invalid_arg "Expr.concat: empty";
  Concat es

let slice e ~hi ~lo =
  if lo < 0 || hi < lo || hi >= width e then invalid_arg "Expr.slice: bad range";
  Slice { e; hi; lo }

let bit e i = slice e ~hi:i ~lo:i

let eq_const e v = eq e (of_int ~width:(width e) v)

let zero_extend e w =
  let we = width e in
  if w < we then invalid_arg "Expr.zero_extend: narrowing";
  if w = we then e else concat [ of_int ~width:(w - we) 0; e ]

let table_read ~table ~width ~addr =
  if width <= 0 then invalid_arg "Expr.table_read: width must be positive";
  Table_read { table; addr; width }

let select sel cases ~default =
  List.fold_right
    (fun (v, e) rest -> mux (eq_const sel v) e rest)
    cases default

let rec fold_signals f e acc =
  match e with
  | Const _ -> acc
  | Signal s -> f s acc
  | Unop (_, a) -> fold_signals f a acc
  | Binop (_, a, b) -> fold_signals f a (fold_signals f b acc)
  | Mux (s, a, b) -> fold_signals f s (fold_signals f a (fold_signals f b acc))
  | Concat es -> List.fold_left (fun acc e -> fold_signals f e acc) acc es
  | Slice { e; _ } -> fold_signals f e acc
  | Table_read { addr; _ } -> fold_signals f addr acc

let rec fold_tables f e acc =
  match e with
  | Const _ | Signal _ -> acc
  | Unop (_, a) -> fold_tables f a acc
  | Binop (_, a, b) -> fold_tables f a (fold_tables f b acc)
  | Mux (s, a, b) -> fold_tables f s (fold_tables f a (fold_tables f b acc))
  | Concat es -> List.fold_left (fun acc e -> fold_tables f e acc) acc es
  | Slice { e; _ } -> fold_tables f e acc
  | Table_read { table; addr; _ } -> f table (fold_tables f addr acc)

let rec map_leaves ~signal ~table e =
  let recur = map_leaves ~signal ~table in
  match e with
  | Const _ -> e
  | Signal s -> signal s
  | Unop (op, a) -> Unop (op, recur a)
  | Binop (op, a, b) -> Binop (op, recur a, recur b)
  | Mux (s, a, b) -> Mux (recur s, recur a, recur b)
  | Concat es -> Concat (List.map recur es)
  | Slice { e; hi; lo } -> Slice { e = recur e; hi; lo }
  | Table_read { table = name; addr; width } ->
    table name (recur addr) width

let bool_bv b = if b then Bitvec.ones 1 else Bitvec.zero 1

let rec eval lookup read_table e =
  let recur = eval lookup read_table in
  match e with
  | Const v -> v
  | Signal s -> lookup s
  | Unop (Not, a) -> Bitvec.lognot (recur a)
  | Unop (Red_and, a) -> bool_bv (Bitvec.reduce_and (recur a))
  | Unop (Red_or, a) -> bool_bv (Bitvec.reduce_or (recur a))
  | Unop (Red_xor, a) -> bool_bv (Bitvec.reduce_xor (recur a))
  | Binop (And, a, b) -> Bitvec.logand (recur a) (recur b)
  | Binop (Or, a, b) -> Bitvec.logor (recur a) (recur b)
  | Binop (Xor, a, b) -> Bitvec.logxor (recur a) (recur b)
  | Binop (Add, a, b) -> Bitvec.add (recur a) (recur b)
  | Binop (Sub, a, b) -> Bitvec.sub (recur a) (recur b)
  | Binop (Eq, a, b) -> bool_bv (Bitvec.equal (recur a) (recur b))
  | Binop (Ne, a, b) -> bool_bv (not (Bitvec.equal (recur a) (recur b)))
  | Binop (Ult, a, b) -> bool_bv (Bitvec.ult (recur a) (recur b))
  | Mux (s, a, b) -> if Bitvec.reduce_or (recur s) then recur a else recur b
  | Concat es -> Bitvec.concat (List.map recur es)
  | Slice { e; hi; lo } -> Bitvec.slice (recur e) ~hi ~lo
  | Table_read { table; addr; _ } -> read_table table (recur addr)
