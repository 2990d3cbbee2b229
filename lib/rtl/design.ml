type reset_kind = No_reset | Sync_reset | Async_reset

let reset_kind_to_string = function
  | No_reset -> "none"
  | Sync_reset -> "sync"
  | Async_reset -> "async"

let reset_kind_of_string = function
  | "none" -> Some No_reset
  | "sync" -> Some Sync_reset
  | "async" -> Some Async_reset
  | _ -> None

type reg = {
  q : Signal.t;
  d : Expr.t;
  reset : reset_kind;
  init : Bitvec.t;
  enable : Expr.t option;
  is_config : bool;
}

type storage =
  | Rom of Bitvec.t array
  | Config

type table = {
  tname : string;
  twidth : int;
  depth : int;
  storage : storage;
}

let addr_bits t = Bitvec.index_width t.depth

type t = {
  name : string;
  inputs : Signal.t list;
  outputs : (Signal.t * Expr.t) list;
  nets : (Signal.t * Expr.t) list;
  regs : reg list;
  tables : table list;
  annots : Annot.t list;
}

let fail fmt = Format.kasprintf invalid_arg fmt

let find_table d name =
  List.find (fun t -> t.tname = name) d.tables

let find_reg d name =
  List.find (fun r -> r.q.Signal.name = name) d.regs

let defined_signals d =
  d.inputs
  @ List.map fst d.nets
  @ List.map (fun r -> r.q) d.regs

let net_order d =
  (* Kahn-style topological sort over net -> net combinational dependencies.
     Register outputs and inputs are sources and never block. *)
  let net_names =
    List.fold_left
      (fun acc (s, _) -> (s.Signal.name :: acc))
      [] d.nets
  in
  let is_net n = List.mem n net_names in
  let deps e =
    Expr.fold_signals
      (fun s acc -> if is_net s.Signal.name then s.Signal.name :: acc else acc)
      e []
  in
  let remaining = Hashtbl.create 16 in
  List.iter (fun (s, e) -> Hashtbl.replace remaining s.Signal.name (s, e, deps e)) d.nets;
  let placed = Hashtbl.create 16 in
  let rec rounds acc =
    if Hashtbl.length remaining = 0 then List.rev acc
    else begin
      let ready =
        Hashtbl.fold
          (fun name (s, e, ds) acc ->
            if List.for_all (Hashtbl.mem placed) ds then (name, s, e) :: acc
            else acc)
          remaining []
      in
      if ready = [] then
        fail "Design %s: combinational cycle through nets {%s}" d.name
          (String.concat ", " (Hashtbl.fold (fun n _ acc -> n :: acc) remaining []));
      let ready = List.sort Stdlib.compare ready in
      List.iter
        (fun (name, _, _) ->
          Hashtbl.remove remaining name;
          Hashtbl.replace placed name ())
        ready;
      rounds (List.rev_append (List.map (fun (_, s, e) -> (s, e)) ready) acc)
    end
  in
  rounds []

(* ROM contents must match the declared geometry. *)
let check_rom d t contents =
  if Array.length contents <> t.depth then
    fail "Design %s: table %s has %d entries, declared depth %d" d.name t.tname
      (Array.length contents) t.depth;
  Array.iter
    (fun v ->
      if Bitvec.width v <> t.twidth then
        fail "Design %s: table %s entry width mismatch" d.name t.tname)
    contents

(* [width_of n] is the width of the signal named [n], if one is defined. *)
let check_annot d width_of (a : Annot.t) =
  match width_of a.target with
  | None -> fail "Design %s: annotation targets unknown signal %s" d.name a.target
  | Some w ->
    if Annot.signal_width a <> w then
      fail "Design %s: annotation on %s has width %d (signal is %d)" d.name
        a.target (Annot.signal_width a) w

let make ~name ~inputs ~outputs ~nets ~regs ~tables ~annots =
  let d = { name; inputs; outputs; nets; regs; tables; annots } in
  if not (Signal.is_atom d.name) then
    fail "Design name %S is not a valid name atom" d.name;
  (* Unique names. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : Signal.t) ->
      if Hashtbl.mem seen s.name then fail "Design %s: duplicate signal %s" d.name s.name;
      Hashtbl.add seen s.name s.width)
    (defined_signals d);
  let tables = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if not (Signal.is_atom t.tname) then
        fail "Design %s: table name %S is not a valid name atom" d.name t.tname;
      if Hashtbl.mem seen t.tname then
        fail "Design %s: table name %s collides with a signal" d.name t.tname;
      if Hashtbl.mem tables t.tname then
        fail "Design %s: duplicate table %s" d.name t.tname;
      if t.twidth <= 0 || t.depth <= 0 then
        fail "Design %s: table %s needs a positive width and depth" d.name t.tname;
      Hashtbl.add tables t.tname t;
      match t.storage with
      | Rom contents -> check_rom d t contents
      | Config -> ())
    d.tables;
  (* References, widths and table read geometry. *)
  let rec check_expr ctx (e : Expr.t) =
    match e with
    | Signal s ->
      (match Hashtbl.find_opt seen s.name with
       | None -> fail "Design %s: %s references undefined signal %s" d.name ctx s.name
       | Some w ->
         if w <> s.width then
           fail "Design %s: %s references %s with width %d (declared %d)"
             d.name ctx s.name s.width w)
    | Table_read { table; addr; width } ->
      (match Hashtbl.find_opt tables table with
       | None -> fail "Design %s: %s reads undeclared table %s" d.name ctx table
       | Some t ->
         if width <> t.twidth then
           fail "Design %s: %s reads table %s at width %d (declared %d)" d.name
             ctx table width t.twidth;
         if Expr.width addr <> addr_bits t then
           fail "Design %s: %s addresses table %s with %d bits (needs %d)"
             d.name ctx table (Expr.width addr) (addr_bits t));
      check_expr ctx addr
    | Const _ -> ()
    | Unop (_, a) | Slice { e = a; _ } -> check_expr ctx a
    | Binop (_, a, b) -> check_expr ctx a; check_expr ctx b
    | Mux (s, a, b) -> check_expr ctx s; check_expr ctx a; check_expr ctx b
    | Concat es -> List.iter (check_expr ctx) es
  in
  let driven kind ((s : Signal.t), e) =
    check_expr (kind ^ " " ^ s.name) e;
    if Expr.width e <> s.width then
      fail "Design %s: %s %s width %d driven at width %d" d.name kind s.name
        s.width (Expr.width e)
  in
  List.iter (driven "net") d.nets;
  let outputs = Hashtbl.create 8 in
  List.iter
    (fun (((s : Signal.t), _) as o) ->
      if Hashtbl.mem outputs s.name then
        fail "Design %s: duplicate output %s" d.name s.name;
      Hashtbl.add outputs s.name ();
      driven "output" o)
    d.outputs;
  List.iter
    (fun r ->
      check_expr ("register " ^ r.q.Signal.name) r.d;
      if Expr.width r.d <> r.q.Signal.width then
        fail "Design %s: register %s width mismatch" d.name r.q.Signal.name;
      if Bitvec.width r.init <> r.q.Signal.width then
        fail "Design %s: register %s init width mismatch" d.name r.q.Signal.name;
      Option.iter
        (fun en ->
          check_expr ("enable of " ^ r.q.Signal.name) en;
          if Expr.width en <> 1 then
            fail "Design %s: register %s enable must be 1 bit" d.name r.q.Signal.name)
        r.enable)
    d.regs;
  List.iter (check_annot d (Hashtbl.find_opt seen)) d.annots;
  (* Cycle check. *)
  ignore (net_order d);
  d

let with_rom_contents d name contents =
  let t = find_table d name in
  check_rom d t contents;
  let tables =
    List.map
      (fun u -> if u.tname = name then { u with storage = Rom contents } else u)
      d.tables
  in
  { d with tables }

let config_tables d =
  List.filter (fun t -> t.storage = Config) d.tables

let config_bit_count d =
  let table_bits =
    List.fold_left (fun acc t -> acc + (t.twidth * t.depth)) 0 (config_tables d)
  in
  let reg_bits =
    List.fold_left
      (fun acc r -> if r.is_config then acc + r.q.Signal.width else acc)
      0 d.regs
  in
  table_bits + reg_bits

let add_annots d annots =
  let widths = Hashtbl.create 64 in
  List.iter
    (fun (s : Signal.t) -> Hashtbl.replace widths s.name s.width)
    (defined_signals d);
  List.iter (check_annot d (Hashtbl.find_opt widths)) annots;
  { d with annots = d.annots @ annots }

let stats d =
  Printf.sprintf
    "%s: %d inputs, %d outputs, %d nets, %d regs (%d state bits), %d tables (%d config bits)"
    d.name (List.length d.inputs) (List.length d.outputs) (List.length d.nets)
    (List.length d.regs)
    (List.fold_left (fun acc r -> acc + r.q.Signal.width) 0 d.regs)
    (List.length d.tables) (config_bit_count d)
