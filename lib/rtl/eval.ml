(* Simulation volume metrics: how many interpreter instances ran and how
   many cycles they stepped (the fault campaigns' dominant cost). *)
let m_instances = Obs.Metrics.counter "rtl.eval.instances"
let m_cycles = Obs.Metrics.counter "rtl.eval.cycles"

(* Every input, register and net owns one slot of [values]: inputs first,
   then registers, then nets. Expressions are compiled once, in [create],
   into closures that read slots, so a cycle costs one pass over the nets
   and no name lookups. *)
type reg = {
  slot : int;
  init : Bitvec.t;
  resets : bool;
  enable : (unit -> Bitvec.t) option;
  next : unit -> Bitvec.t;
}

type state = {
  slots : (string, int) Hashtbl.t;
  values : Bitvec.t array;  (* always at the signal's declared width *)
  num_inputs : int;
  nets : (int * (unit -> Bitvec.t)) array;  (* in [Design.net_order] *)
  regs : reg array;
  outputs : (string, unit -> Bitvec.t) Hashtbl.t;
  mutable valid : bool;  (* the net slots hold this cycle's values *)
  mutable rst : bool;
}

let bool_bv b = if b then Bitvec.ones 1 else Bitvec.zero 1

(* The closure analogue of [Expr.eval]: same operators, same argument
   evaluation order, and a mux evaluates only the branch it selects. *)
let rec compile ~read ~values (slots : (string, int) Hashtbl.t) e =
  let c = compile ~read ~values slots in
  let unop f a = let a = c a in fun () -> f (a ()) in
  let binop f a b = let a = c a and b = c b in fun () -> f (a ()) (b ()) in
  match (e : Expr.t) with
  | Const v -> fun () -> v
  | Signal s ->
    let i = Hashtbl.find slots s.name in
    fun () -> values.(i)
  | Unop (Not, a) -> unop Bitvec.lognot a
  | Unop (Red_and, a) -> unop (fun v -> bool_bv (Bitvec.reduce_and v)) a
  | Unop (Red_or, a) -> unop (fun v -> bool_bv (Bitvec.reduce_or v)) a
  | Unop (Red_xor, a) -> unop (fun v -> bool_bv (Bitvec.reduce_xor v)) a
  | Binop (And, a, b) -> binop Bitvec.logand a b
  | Binop (Or, a, b) -> binop Bitvec.logor a b
  | Binop (Xor, a, b) -> binop Bitvec.logxor a b
  | Binop (Add, a, b) -> binop Bitvec.add a b
  | Binop (Sub, a, b) -> binop Bitvec.sub a b
  | Binop (Eq, a, b) -> binop (fun x y -> bool_bv (Bitvec.equal x y)) a b
  | Binop (Ne, a, b) -> binop (fun x y -> bool_bv (not (Bitvec.equal x y))) a b
  | Binop (Ult, a, b) -> binop (fun x y -> bool_bv (Bitvec.ult x y)) a b
  | Mux (s, a, b) ->
    let s = c s and a = c a and b = c b in
    fun () -> if Bitvec.reduce_or (s ()) then a () else b ()
  | Concat es ->
    let es = List.map c es in
    fun () -> Bitvec.concat (List.map (fun f -> f ()) es)
  | Slice { e; hi; lo } -> unop (fun v -> Bitvec.slice v ~hi ~lo) e
  | Table_read { table; addr; _ } -> unop (read table) addr

(* One reader per ROM, resolved at creation. An unbound configuration
   table still raises when (and every time) a cycle actually reads it. *)
let table_readers (d : Design.t) =
  let readers = Hashtbl.create 8 in
  List.iter
    (fun (t : Design.table) ->
      match t.storage with
      | Design.Rom contents ->
        let zero = Bitvec.zero t.twidth in
        Hashtbl.replace readers t.tname (fun addr ->
            let idx = Bitvec.to_int addr in
            if idx < Array.length contents then contents.(idx) else zero)
      | Design.Config -> ())
    d.tables;
  fun name ->
    match Hashtbl.find_opt readers name with
    | Some r -> r
    | None ->
      fun _ -> invalid_arg ("Eval: reading unbound configuration table " ^ name)

let create ?(config = []) (d : Design.t) =
  (* A bound configuration table reads like a ROM; [with_rom_contents]
     checks the caller's contents against its geometry. *)
  let d =
    List.fold_left
      (fun d (t : Design.table) ->
        match (t.storage, List.assoc_opt t.tname config) with
        | Design.Config, Some contents -> Design.with_rom_contents d t.tname contents
        | _ -> d)
      d d.tables
  in
  let read = table_readers d in
  let ordered_nets = Design.net_order d in
  let signals =
    Array.of_list
      (d.inputs
       @ List.map (fun (r : Design.reg) -> r.q) d.regs
       @ List.map fst ordered_nets)
  in
  let slots = Hashtbl.create (Array.length signals) in
  Array.iteri (fun i (s : Signal.t) -> Hashtbl.replace slots s.name i) signals;
  let num_inputs = List.length d.inputs in
  let values = Array.map (fun (s : Signal.t) -> Bitvec.zero s.width) signals in
  List.iteri
    (fun j (r : Design.reg) -> values.(num_inputs + j) <- r.init)
    d.regs;
  let compile = compile ~read ~values slots in
  let nets =
    Array.of_list
      (List.map
         (fun ((s : Signal.t), e) -> (Hashtbl.find slots s.name, compile e))
         ordered_nets)
  in
  let regs =
    Array.of_list
      (List.mapi
         (fun j (r : Design.reg) ->
           { slot = num_inputs + j; init = r.init;
             resets = r.reset <> Design.No_reset;
             enable = Option.map compile r.enable; next = compile r.d })
         d.regs)
  in
  let outputs = Hashtbl.create 8 in
  List.iter
    (fun ((s : Signal.t), e) -> Hashtbl.replace outputs s.name (compile e))
    d.outputs;
  Obs.Metrics.incr m_instances;
  { slots; values; num_inputs; nets; regs; outputs; valid = false; rst = false }

(* The slot of [name] if it lies in [lo, hi). *)
let slot_in st name lo hi =
  match Hashtbl.find_opt st.slots name with
  | Some i when i >= lo && i < hi -> Some i
  | _ -> None

let write st what name i v =
  if Bitvec.width v <> Bitvec.width st.values.(i) then
    invalid_arg (Printf.sprintf "Eval.%s: width mismatch on %s" what name);
  st.values.(i) <- v;
  st.valid <- false

let set_input st name v =
  match slot_in st name 0 st.num_inputs with
  | None -> invalid_arg ("Eval.set_input: unknown input " ^ name)
  | Some i -> write st "set_input" name i v

let reg_slot st what name =
  match slot_in st name st.num_inputs (st.num_inputs + Array.length st.regs) with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Eval.%s: unknown register %s" what name)

let peek_reg st name = st.values.(reg_slot st "peek_reg" name)

let poke_reg st name v = write st "poke_reg" name (reg_slot st "poke_reg" name) v

(* Evaluate this cycle's nets unless they are already current. [valid] is
   set only after every net succeeded, so a read that raised (an unbound
   configuration table) raises again on the next call. *)
let settle st =
  if not st.valid then begin
    Array.iter (fun (i, f) -> st.values.(i) <- f ()) st.nets;
    st.valid <- true
  end

let peek st name =
  settle st;
  match Hashtbl.find_opt st.slots name with
  | Some i -> st.values.(i)
  | None ->
    (match Hashtbl.find_opt st.outputs name with
     | Some f -> f ()
     | None -> invalid_arg ("Eval.peek: unknown signal " ^ name))

let step st =
  Obs.Metrics.incr m_cycles;
  settle st;
  let next r =
    if st.rst && r.resets then r.init
    else begin
      let enabled =
        match r.enable with
        | None -> true
        | Some en -> Bitvec.reduce_or (en ())
      in
      if enabled then r.next () else st.values.(r.slot)
    end
  in
  let updates = Array.map next st.regs in
  Array.iteri (fun j r -> st.values.(r.slot) <- updates.(j)) st.regs;
  st.valid <- false

let reset st =
  st.rst <- true;
  step st;
  st.rst <- false

let run st ~stimulus ~watch =
  let cycle alist =
    List.iter (fun (name, v) -> set_input st name v) alist;
    let row = List.map (peek st) watch in
    step st;
    row
  in
  List.map cycle stimulus
