type t = {
  name : string;
  num_inputs : int;
  num_outputs : int;
  states : string array;
  reset : int;
  next : int array array;
  out : Bitvec.t array array;
}

let make ~name ~num_inputs ~num_outputs ~states ~reset ~next ~out =
  let s = Array.length states in
  if s = 0 then invalid_arg "Fsm_ir.make: no states";
  if num_inputs < 1 || num_inputs > 16 then
    invalid_arg "Fsm_ir.make: unsupported input count";
  if num_outputs < 1 then invalid_arg "Fsm_ir.make: no outputs";
  if reset < 0 || reset >= s then invalid_arg "Fsm_ir.make: bad reset state";
  let names = Hashtbl.create s in
  Array.iter
    (fun n ->
      if Hashtbl.mem names n then invalid_arg "Fsm_ir.make: duplicate state name";
      Hashtbl.add names n ())
    states;
  let cols = 1 lsl num_inputs in
  if Array.length next <> s || Array.length out <> s then
    invalid_arg "Fsm_ir.make: table row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Fsm_ir.make: next-state column count mismatch";
      Array.iter
        (fun target ->
          if target < 0 || target >= s then
            invalid_arg "Fsm_ir.make: bad transition target")
        row)
    next;
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Fsm_ir.make: output column count mismatch";
      Array.iter
        (fun v ->
          if Bitvec.width v <> num_outputs then
            invalid_arg "Fsm_ir.make: output width mismatch")
        row)
    out;
  { name; num_inputs; num_outputs; states; reset; next; out }

let of_moore ~name ~num_inputs ~num_outputs ~states ~reset ~next ~moore_out =
  let cols = 1 lsl num_inputs in
  let out = Array.map (fun v -> Array.make cols v) moore_out in
  make ~name ~num_inputs ~num_outputs ~states ~reset ~next ~out

let num_states t = Array.length t.states

type encoding =
  | Binary
  | Gray
  | One_hot

let state_bits t = Bitvec.index_width (num_states t)

let state_bits_with enc t =
  match enc with
  | Binary | Gray -> state_bits t
  | One_hot -> num_states t

let encode_with enc t s =
  match enc with
  | Binary -> Bitvec.of_int ~width:(state_bits t) s
  | Gray -> Bitvec.of_int ~width:(state_bits t) (s lxor (s lsr 1))
  | One_hot -> Bitvec.one_hot ~width:(num_states t) s

let encode t s = encode_with Binary t s

let state_codes_with enc t = List.init (num_states t) (encode_with enc t)

let state_codes t = state_codes_with Binary t

let reachable t =
  let seen = Array.make (num_states t) false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      Array.iter visit t.next.(s)
    end
  in
  visit t.reset;
  List.filter (fun s -> seen.(s)) (List.init (num_states t) Fun.id)

let reachable_codes t = List.map (encode t) (reachable t)

let reachable_with t ~inputs =
  let seen = Array.make (num_states t) false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun i -> visit t.next.(s).(i)) inputs
    end
  in
  visit t.reset;
  List.filter (fun s -> seen.(s)) (List.init (num_states t) Fun.id)

let step t ~state ~input = (t.next.(state).(input), t.out.(state).(input))

let simulate t inputs =
  let rec go state = function
    | [] -> []
    | i :: rest ->
      let state', o = step t ~state ~input:i in
      o :: go state' rest
  in
  go t.reset inputs

let input_support t s =
  let cols = 1 lsl t.num_inputs in
  let matters b =
    let rec scan i =
      if i >= cols then false
      else begin
        let j = i lxor (1 lsl b) in
        if t.next.(s).(i) <> t.next.(s).(j)
           || not (Bitvec.equal t.out.(s).(i) t.out.(s).(j))
        then true
        else scan (i + 1)
      end
    in
    scan 0
  in
  List.filter matters (List.init t.num_inputs Fun.id)

(* Table layout of the flexible implementation: address = {state, inputs}
   (inputs are the low bits), entry = next code / output word. Entries whose
   state field is not a defined state read zero. Moore machines (outputs
   independent of the inputs) store a compact state-indexed output table —
   the generator knows the machine is Moore and spends config bits
   accordingly. *)

let is_moore t =
  Array.for_all
    (fun row -> Array.for_all (fun v -> Bitvec.equal v row.(0)) row)
    t.out

let ns_table_name t = t.name ^ "_ns_mem"
let out_table_name t = t.name ^ "_out_mem"

let config_bindings t =
  let k = state_bits t in
  (* Entry [a] of a table read at {state, [bits] inputs} holds [f s i] for
     state index [s = a lsr bits] and input [i], the low [bits] of [a]. *)
  let table ~bits ~zero f =
    Array.init (1 lsl (k + bits)) (fun a ->
        let s = a lsr bits in
        if s < num_states t then f s (a land ((1 lsl bits) - 1)) else zero)
  in
  let ns =
    table ~bits:t.num_inputs ~zero:(Bitvec.zero k) (fun s i ->
        encode t t.next.(s).(i))
  in
  let out =
    table
      ~bits:(if is_moore t then 0 else t.num_inputs)
      ~zero:(Bitvec.zero t.num_outputs)
      (fun s i -> t.out.(s).(i))
  in
  [ (ns_table_name t, ns); (out_table_name t, out) ]

let annotation ?(provenance = Rtl.Annot.Generator) ~encoding t =
  Rtl.Annot.fsm_state_vector ~provenance "state" (state_codes_with encoding t)

let to_flexible_rtl ?(annotate = false) t =
  let b = Rtl.Builder.create t.name in
  let inp = Rtl.Builder.input b "in" t.num_inputs in
  let state =
    Rtl.Builder.reg_declare b "state" ~width:(state_bits t)
      ~reset:Rtl.Design.Sync_reset ~init:(encode t t.reset)
  in
  List.iter
    (fun (name, contents) ->
      Rtl.Builder.config_table b name ~width:(Bitvec.width contents.(0))
        ~depth:(Array.length contents))
    (config_bindings t);
  let addr = Rtl.Expr.concat [ state; inp ] in
  Rtl.Builder.reg_connect b "state"
    (Rtl.Builder.read_table b (ns_table_name t) addr);
  let out_addr = if is_moore t then state else addr in
  Rtl.Builder.output b "out" (Rtl.Builder.read_table b (out_table_name t) out_addr);
  if annotate then Rtl.Builder.annotate b (annotation ~encoding:Binary t);
  Rtl.Builder.finish b

(* Shannon tree over the inputs a state actually uses — what a designer's
   nested if/case would look like. *)
let shannon_tree inp support value =
  let rec go assigned = function
    | [] -> value assigned
    | b :: rest ->
      Rtl.Expr.mux (Rtl.Expr.bit inp b)
        (go (assigned lor (1 lsl b)) rest)
        (go assigned rest)
  in
  go 0 support

let to_direct_rtl ?(encoding = Binary) t =
  let b = Rtl.Builder.create (t.name ^ "_direct") in
  let k = state_bits_with encoding t in
  let inp = Rtl.Builder.input b "in" t.num_inputs in
  let state =
    Rtl.Builder.reg_declare b "state" ~width:k ~reset:Rtl.Design.Sync_reset
      ~init:(encode_with encoding t t.reset)
  in
  let state_hit s =
    (* One-hot case items test a single bit, as a designer would write. *)
    match encoding with
    | One_hot -> Rtl.Expr.bit state s
    | Binary | Gray ->
      Rtl.Expr.eq state (Rtl.Expr.const (encode_with encoding t s))
  in
  let per_state f default =
    List.fold_right
      (fun s rest ->
        let support = input_support t s in
        Rtl.Expr.mux (state_hit s) (shannon_tree inp support (f s)) rest)
      (List.init (num_states t) Fun.id)
      default
  in
  let next_expr =
    per_state
      (fun s i -> Rtl.Expr.const (encode_with encoding t t.next.(s).(i)))
      (Rtl.Expr.const (encode_with encoding t t.reset))
  in
  let out_expr =
    per_state
      (fun s i -> Rtl.Expr.const t.out.(s).(i))
      (Rtl.Expr.of_int ~width:t.num_outputs 0)
  in
  Rtl.Builder.reg_connect b "state" next_expr;
  Rtl.Builder.output b "out" out_expr;
  Rtl.Builder.annotate b
    (annotation ~provenance:Rtl.Annot.Tool_detected ~encoding t);
  Rtl.Builder.finish b
