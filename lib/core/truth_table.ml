type t = {
  name : string;
  width : int;
  entries : Bitvec.t array;
}

let make ~name ~width entries =
  if Array.length entries = 0 then invalid_arg "Truth_table.make: empty";
  Array.iter
    (fun v ->
      if Bitvec.width v <> width then
        invalid_arg "Truth_table.make: entry width mismatch")
    entries;
  { name; width; entries }

let of_fun ~name ~width ~depth f =
  make ~name ~width (Array.init depth f)

let depth t = Array.length t.entries

let addr_bits t = Bitvec.index_width (depth t)

let eval t a =
  if a < 0 then invalid_arg "Truth_table.eval: negative address";
  if a < depth t then t.entries.(a) else Bitvec.zero t.width

let table_name t = t.name ^ "_mem"

let config_binding t = (table_name t, t.entries)

let to_flexible_rtl t =
  let b = Rtl.Builder.create t.name in
  let addr = Rtl.Builder.input b "addr" (addr_bits t) in
  Rtl.Builder.config_table b (table_name t) ~width:t.width ~depth:(depth t);
  Rtl.Builder.output b "data" (Rtl.Builder.read_table b (table_name t) addr);
  Rtl.Builder.finish b

let to_sop_rtl t =
  let b = Rtl.Builder.create (t.name ^ "_sop") in
  let k = addr_bits t in
  let addr = Rtl.Builder.input b "addr" k in
  (* Canonical SOP per output bit: OR of full minterms of the ON-set. Each
     minterm is built once and the immutable tree is shared by every bit
     whose ON-set holds it. *)
  let minterm a =
    let literal i =
      let bit = Rtl.Expr.bit addr i in
      if a lsr i land 1 = 1 then bit else Rtl.Expr.not_ bit
    in
    List.fold_left
      (fun acc i -> Rtl.Expr.and_ acc (literal i))
      (literal 0)
      (List.init (k - 1) (fun i -> i + 1))
  in
  let minterms = Array.init (depth t) minterm in
  let out_bit j =
    let ons =
      List.filter (fun a -> Bitvec.get t.entries.(a) j)
        (List.init (depth t) Fun.id)
    in
    match ons with
    | [] -> Rtl.Expr.of_int ~width:1 0
    | first :: rest ->
      List.fold_left
        (fun acc a -> Rtl.Expr.or_ acc minterms.(a))
        minterms.(first) rest
  in
  let bits = List.init t.width out_bit in
  Rtl.Builder.output b "data" (Rtl.Expr.concat (List.rev bits));
  Rtl.Builder.finish b
