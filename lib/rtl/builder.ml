type pending_reg = {
  mutable preg : Design.reg;
  mutable connected : bool;
}

type t = {
  name : string;
  mutable inputs : Signal.t list;
  mutable outputs : (Signal.t * Expr.t) list;
  mutable nets : (Signal.t * Expr.t) list;
  regs : (string, pending_reg) Hashtbl.t;
  mutable reg_order : string list;
  mutable tables : Design.table list;
  mutable annots : Annot.t list;
}

let create name =
  { name; inputs = []; outputs = []; nets = []; regs = Hashtbl.create 16;
    reg_order = []; tables = []; annots = [] }

let input b name width =
  let s = Signal.make name width in
  b.inputs <- b.inputs @ [ s ];
  Expr.signal s

let net b name e =
  let s = Signal.make name (Expr.width e) in
  b.nets <- b.nets @ [ (s, e) ];
  Expr.signal s

let output b name e =
  let s = Signal.make name (Expr.width e) in
  b.outputs <- b.outputs @ [ (s, e) ]

let reg_declare b ?(reset = Design.Sync_reset) ?init ?(is_config = false) name
    ~width =
  let q = Signal.make name width in
  let init = Option.value init ~default:(Bitvec.zero width) in
  let preg =
    { Design.q; d = Expr.signal q (* placeholder: hold *); reset; init;
      enable = None; is_config }
  in
  Hashtbl.add b.regs name { preg; connected = false };
  b.reg_order <- b.reg_order @ [ name ];
  Expr.signal q

let reg_connect b ?enable name d =
  match Hashtbl.find_opt b.regs name with
  | None -> invalid_arg ("Builder.reg_connect: unknown register " ^ name)
  | Some p ->
    if p.connected then
      invalid_arg ("Builder.reg_connect: register already connected: " ^ name);
    p.preg <- { p.preg with d; enable };
    p.connected <- true

let reg b ?reset ?init ?enable name ~d =
  let q = reg_declare b ?reset ?init name ~width:(Expr.width d) in
  reg_connect b ?enable name d;
  q

let add_table b table = b.tables <- b.tables @ [ table ]

let rom b name ~width contents =
  add_table b
    { Design.tname = name; twidth = width; depth = Array.length contents;
      storage = Design.Rom contents }

let config_table b name ~width ~depth =
  add_table b { Design.tname = name; twidth = width; depth; storage = Design.Config }

let read_table b name addr =
  match List.find_opt (fun (t : Design.table) -> t.tname = name) b.tables with
  | None -> invalid_arg ("Builder.read_table: unknown table " ^ name)
  | Some t -> Expr.table_read ~table:name ~width:t.twidth ~addr

let annotate b a = b.annots <- b.annots @ [ a ]

let finish b =
  let regs =
    List.map
      (fun name ->
        let p = Hashtbl.find b.regs name in
        if not p.connected then
          invalid_arg ("Builder.finish: register never connected: " ^ name);
        p.preg)
      b.reg_order
  in
  Design.make ~name:b.name ~inputs:b.inputs ~outputs:b.outputs ~nets:b.nets
    ~regs ~tables:b.tables ~annots:b.annots
