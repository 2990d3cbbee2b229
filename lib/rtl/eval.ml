module Smap = Map.Make (String)

(* Simulation volume metrics: how many interpreter instances ran and how
   many cycles they stepped (the fault campaigns' dominant cost). *)
let m_instances = Obs.Metrics.counter "rtl.eval.instances"
let m_cycles = Obs.Metrics.counter "rtl.eval.cycles"

type state = {
  d : Design.t;
  ordered_nets : (Signal.t * Expr.t) list;
  tables : (string, Bitvec.t array) Hashtbl.t;
  mutable inputs : Bitvec.t Smap.t;
  mutable regs : Bitvec.t Smap.t;
  mutable rst : bool;
}

let create ?(config = []) d =
  Design.validate d;
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (t : Design.table) ->
      match t.storage with
      | Design.Rom contents -> Hashtbl.replace tables t.tname contents
      | Design.Config ->
        (match List.assoc_opt t.tname config with
         | Some contents ->
           if Array.length contents <> t.depth then
             invalid_arg ("Eval.create: config size mismatch for " ^ t.tname);
           Array.iter
             (fun v ->
               if Bitvec.width v <> t.twidth then
                 invalid_arg ("Eval.create: config width mismatch for " ^ t.tname))
             contents;
           Hashtbl.replace tables t.tname contents
         | None -> ()))
    d.tables;
  let inputs =
    List.fold_left
      (fun m (s : Signal.t) -> Smap.add s.name (Bitvec.zero s.width) m)
      Smap.empty d.inputs
  in
  let regs =
    List.fold_left
      (fun m (r : Design.reg) -> Smap.add r.q.Signal.name r.init m)
      Smap.empty d.regs
  in
  Obs.Metrics.incr m_instances;
  { d; ordered_nets = Design.net_order d; tables; inputs; regs; rst = false }

let set_input st name v =
  match List.find_opt (fun (s : Signal.t) -> s.name = name) st.d.inputs with
  | None -> invalid_arg ("Eval.set_input: unknown input " ^ name)
  | Some s ->
    if Bitvec.width v <> s.width then
      invalid_arg ("Eval.set_input: width mismatch on " ^ name);
    st.inputs <- Smap.add name v st.inputs

let peek_reg st name =
  match Smap.find_opt name st.regs with
  | Some v -> v
  | None -> invalid_arg ("Eval.peek_reg: unknown register " ^ name)

let poke_reg st name v =
  match List.find_opt (fun (r : Design.reg) -> r.q.Signal.name = name) st.d.regs with
  | None -> invalid_arg ("Eval.poke_reg: unknown register " ^ name)
  | Some r ->
    if Bitvec.width v <> r.q.Signal.width then
      invalid_arg ("Eval.poke_reg: width mismatch on " ^ name);
    st.regs <- Smap.add name v st.regs

let read_table st name addr =
  match Hashtbl.find_opt st.tables name with
  | None -> invalid_arg ("Eval: reading unbound configuration table " ^ name)
  | Some contents ->
    let t = Design.find_table st.d name in
    let idx = Bitvec.to_int addr in
    if idx < Array.length contents then contents.(idx) else Bitvec.zero t.twidth

(* Environment of all combinational values for the current cycle. *)
let comb_env st =
  let env = ref st.inputs in
  Smap.iter (fun k v -> env := Smap.add k v !env) st.regs;
  let lookup (s : Signal.t) =
    match Smap.find_opt s.name !env with
    | Some v -> v
    | None -> invalid_arg ("Eval: use of undriven signal " ^ s.name)
  in
  List.iter
    (fun ((s : Signal.t), e) ->
      env := Smap.add s.name (Expr.eval lookup (read_table st) e) !env)
    st.ordered_nets;
  !env

let eval_in_env st env e =
  let lookup (s : Signal.t) =
    match Smap.find_opt s.Signal.name env with
    | Some v -> v
    | None -> invalid_arg ("Eval: use of undriven signal " ^ s.Signal.name)
  in
  Expr.eval lookup (read_table st) e

let peek st name =
  let env = comb_env st in
  match Smap.find_opt name env with
  | Some v -> v
  | None ->
    (match List.find_opt (fun ((s : Signal.t), _) -> s.name = name) st.d.outputs with
     | Some (_, e) -> eval_in_env st env e
     | None -> invalid_arg ("Eval.peek: unknown signal " ^ name))

let step st =
  Obs.Metrics.incr m_cycles;
  let env = comb_env st in
  let next (r : Design.reg) =
    let old = Smap.find r.q.Signal.name st.regs in
    if st.rst && r.reset <> Design.No_reset then r.init
    else begin
      let enabled =
        match r.enable with
        | None -> true
        | Some en -> Bitvec.reduce_or (eval_in_env st env en)
      in
      if enabled then eval_in_env st env r.d else old
    end
  in
  let updates = List.map (fun r -> (r.Design.q.Signal.name, next r)) st.d.regs in
  st.regs <-
    List.fold_left (fun m (k, v) -> Smap.add k v m) st.regs updates

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
