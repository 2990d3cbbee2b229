type field = { fname : string; fwidth : int; onehot : bool }

type seqctl =
  | Next
  | Jump of int
  | Dispatch of int

type uop = { ctl : (string * int) list; seq : seqctl }

type program = {
  pname : string;
  format : field list;
  code : uop array;
  dispatch : (string * int array) list;
  opcode_bits : int;
  entry : int;
}

let make ~name ~format ?(dispatch = []) ?(opcode_bits = 1) ?(entry = 0) code =
  if Array.length code = 0 then invalid_arg "Microcode.make: empty program";
  if opcode_bits < 1 || opcode_bits > 12 then
    invalid_arg "Microcode.make: bad opcode width";
  if entry < 0 || entry >= Array.length code then
    invalid_arg "Microcode.make: bad entry";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if f.fwidth < 1 || f.fwidth > 30 then
        invalid_arg ("Microcode.make: bad width for field " ^ f.fname);
      if Hashtbl.mem seen f.fname then
        invalid_arg ("Microcode.make: duplicate field " ^ f.fname);
      Hashtbl.add seen f.fname ())
    format;
  let check_uop (u : uop) =
    List.iter
      (fun (fname, v) ->
        match List.find_opt (fun f -> f.fname = fname) format with
        | None -> invalid_arg ("Microcode.make: unknown field " ^ fname)
        | Some f ->
          if v < 0 || v lsr f.fwidth <> 0 then
            invalid_arg ("Microcode.make: value out of range for " ^ fname))
      u.ctl;
    match u.seq with
    | Next -> ()
    | Jump a ->
      if a < 0 || a >= Array.length code then
        invalid_arg "Microcode.make: jump target out of range"
    | Dispatch i ->
      if i < 0 || i >= max 1 (List.length dispatch) then
        invalid_arg "Microcode.make: dispatch table index out of range"
  in
  Array.iter check_uop code;
  List.iter
    (fun (tname, targets) ->
      if Array.length targets <> 1 lsl opcode_bits then
        invalid_arg ("Microcode.make: dispatch table size mismatch: " ^ tname);
      Array.iter
        (fun a ->
          if a < 0 || a >= Array.length code then
            invalid_arg ("Microcode.make: dispatch target out of range: " ^ tname))
        targets)
    dispatch;
  { pname = name; format; code; dispatch; opcode_bits; entry }

let depth p = Array.length p.code

let upc_bits p = Bitvec.index_width (depth p)

let ctl_width p = List.fold_left (fun acc f -> acc + f.fwidth) 0 p.format

let word_width p = ctl_width p + 2 + upc_bits p

let field_value _p (u : uop) fname =
  Option.value ~default:0 (List.assoc_opt fname u.ctl)

let seq_mode = function Next -> 0 | Jump _ -> 1 | Dispatch _ -> 2
let seq_target = function Next -> 0 | Jump a -> a | Dispatch i -> i

let encode_word p a =
  let w = word_width p in
  if a >= depth p then Bitvec.zero w
  else begin
    let u = p.code.(a) in
    let ctl_parts =
      List.map
        (fun f -> Bitvec.of_int ~width:f.fwidth (field_value p u f.fname))
        p.format
    in
    let mode = Bitvec.of_int ~width:2 (seq_mode u.seq) in
    let target = Bitvec.of_int ~width:(upc_bits p) (seq_target u.seq) in
    (* Concat is MSB-first; field order is LSB-first. *)
    Bitvec.concat (target :: mode :: List.rev ctl_parts)
  end

(* Addresses beyond the code read the all-zero word (mode = next), exactly
   like the generated hardware's out-of-range table read. The counter wraps
   modulo 2^upc_bits, matching the adder. *)
let uop_at p a = if a < depth p then p.code.(a) else { ctl = []; seq = Next }

(* Control-fields-only word (no sequencing), LSB-first field order. *)
let encode_ctl p u =
  Bitvec.concat
    (List.rev_map
       (fun f -> Bitvec.of_int ~width:f.fwidth (field_value p u f.fname))
       p.format)

type style = [ `Horizontal | `Vertical ]

(* The vertical decode memory's entry 0 must be the all-zero control word so
   that out-of-range microcode reads (index 0) behave like the horizontal
   zero word. *)
let decode_entries p =
  let zero = encode_ctl p { ctl = []; seq = Next } in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen zero ();
  let words = ref [ zero ] in
  Array.iter
    (fun u ->
      let w = encode_ctl p u in
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.replace seen w ();
        words := w :: !words
      end)
    p.code;
  Array.of_list (List.rev !words)

let distinct_control_words p = Array.length (decode_entries p)

let index_bits p = Bitvec.index_width (distinct_control_words p)

let step p ~upc ~op =
  let u = uop_at p upc in
  let fields = List.map (fun f -> (f.fname, field_value p u f.fname)) p.format in
  let next =
    match u.seq with
    | Next -> (upc + 1) mod (1 lsl upc_bits p)
    | Jump a -> a
    | Dispatch i ->
      let _, targets = List.nth p.dispatch i in
      targets.(op land ((1 lsl p.opcode_bits) - 1))
  in
  (fields, next)

let run p ~ops =
  let rec go upc = function
    | [] -> []
    | op :: rest ->
      let fields, upc' = step p ~upc ~op in
      fields :: go upc' rest
  in
  go p.entry ops

let reachable_addrs p =
  let space = 1 lsl upc_bits p in
  let seen = Array.make space false in
  let rec visit a =
    if not seen.(a) then begin
      seen.(a) <- true;
      match (uop_at p a).seq with
      | Next -> visit ((a + 1) mod space)
      | Jump target -> visit target
      | Dispatch i ->
        let _, targets = List.nth p.dispatch i in
        Array.iter visit targets
    end
  in
  visit p.entry;
  List.filter (fun a -> seen.(a)) (List.init space Fun.id)

let field_value_set p fname =
  if not (List.exists (fun f -> f.fname = fname) p.format) then
    invalid_arg ("Microcode.field_value_set: unknown field " ^ fname);
  let values =
    List.map (fun a -> field_value p (uop_at p a) fname) (reachable_addrs p)
  in
  List.sort_uniq Stdlib.compare (0 :: values)

let umem_name p = p.pname ^ "_umem"
let udec_name p = p.pname ^ "_udec"
let dt_name p tname = Printf.sprintf "%s_dt_%s" p.pname tname

(* Vertical microcode word: [decode index][mode][target], LSB-first. *)
let encode_word_vertical p =
  let entries = decode_entries p in
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun i w -> Hashtbl.replace index_of w i) entries;
  fun a ->
    let ib = index_bits p in
    let w = ib + 2 + upc_bits p in
    if a >= depth p then Bitvec.zero w
    else begin
      let u = p.code.(a) in
      let idx = Hashtbl.find index_of (encode_ctl p u) in
      Bitvec.concat
        [
          Bitvec.of_int ~width:(upc_bits p) (seq_target u.seq);
          Bitvec.of_int ~width:2 (seq_mode u.seq);
          Bitvec.of_int ~width:ib idx;
        ]
    end

let config_bindings ?(style = `Horizontal) p =
  let umem =
    match style with
    | `Horizontal -> [ (umem_name p, Array.init (depth p) (encode_word p)) ]
    | `Vertical ->
      [
        (umem_name p, Array.init (depth p) (encode_word_vertical p));
        (udec_name p, decode_entries p);
      ]
  in
  let dts =
    List.map
      (fun (tname, targets) ->
        ( dt_name p tname,
          Array.map (Bitvec.of_int ~width:(upc_bits p)) targets ))
      p.dispatch
  in
  umem @ dts

let to_rtl ?(style = `Horizontal) ?(registered_outputs = false) p =
  if style = `Vertical && p.format = [] then
    invalid_arg "Microcode.to_rtl: vertical style needs control fields";
  let b = Rtl.Builder.create p.pname in
  let a = upc_bits p in
  let op = Rtl.Builder.input b "op" p.opcode_bits in
  let upc =
    Rtl.Builder.reg_declare b "upc" ~width:a ~reset:Rtl.Design.Sync_reset
      ~init:(Bitvec.of_int ~width:a p.entry)
  in
  List.iter
    (fun (name, contents) ->
      Rtl.Builder.config_table b name ~width:(Bitvec.width contents.(0))
        ~depth:(Array.length contents))
    (config_bindings ~style p);
  let word = Rtl.Builder.net b "uword" (Rtl.Builder.read_table b (umem_name p) upc) in
  (* Position of the sequencing fields within the memory word, and the
     control word the field slices read from. *)
  let seq_lo, ctl_word =
    match style with
    | `Horizontal -> (ctl_width p, word)
    | `Vertical ->
      let ib = index_bits p in
      let idx = Rtl.Expr.slice word ~hi:(ib - 1) ~lo:0 in
      ( ib,
        Rtl.Builder.net b "udec_word" (Rtl.Builder.read_table b (udec_name p) idx) )
  in
  let mode = Rtl.Expr.slice word ~hi:(seq_lo + 1) ~lo:seq_lo in
  let target = Rtl.Expr.slice word ~hi:(seq_lo + 2 + a - 1) ~lo:(seq_lo + 2) in
  let incremented = Rtl.Expr.add upc (Rtl.Expr.of_int ~width:a 1) in
  let dispatch_value =
    match p.dispatch with
    | [] -> incremented
    | [ (tname, _) ] -> Rtl.Builder.read_table b (dt_name p tname) op
    | tables ->
      (* The target field selects the dispatch table. *)
      List.fold_right
        (fun (idx, (tname, _)) rest ->
          Rtl.Expr.mux
            (Rtl.Expr.eq_const target idx)
            (Rtl.Builder.read_table b (dt_name p tname) op)
            rest)
        (List.mapi (fun i t -> (i, t)) tables)
        incremented
  in
  let upc_next =
    Rtl.Expr.select mode
      [ (0, incremented); (1, target); (2, dispatch_value) ]
      ~default:incremented
  in
  Rtl.Builder.reg_connect b "upc" upc_next;
  (* Control field outputs, optionally through pipeline registers. *)
  let _ =
    List.fold_left
      (fun lo f ->
        let raw = Rtl.Expr.slice ctl_word ~hi:(lo + f.fwidth - 1) ~lo in
        let driver =
          if registered_outputs then
            Rtl.Builder.reg b (f.fname ^ "_r") ~reset:Rtl.Design.Sync_reset ~d:raw
          else raw
        in
        Rtl.Builder.output b f.fname driver;
        lo + f.fwidth)
      0 p.format
  in
  Rtl.Builder.finish b
