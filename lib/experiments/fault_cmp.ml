type impl = Flexible | Bound

let impl_name = function Flexible -> "flexible" | Bound -> "bound"

type row = {
  impl : impl;
  model : Fault.Campaign.model;
  report : Fault.Campaign.report;
}

let default_cycles = 40

let stimulus ~cycles =
  let op_val = Pctrl.Protocol.encode_opcode Pctrl.Protocol.Copy_line in
  List.init cycles (fun cycle ->
      [
        ("op", Bitvec.of_int ~width:3 (if cycle < 3 then op_val else 0));
        ("src", Bitvec.of_int ~width:2 1);
        ("dst", Bitvec.of_int ~width:2 3);
        ("rdy", Bitvec.ones 1);
        ("data_in", Bitvec.zero Pctrl.Controller.beat_width);
      ])

let watch = [ "data_out"; "mem_en"; "mem_we"; "busy" ]

let spec_of ?(cycles = default_cycles) ?(mode = Pctrl.Controller.Cached) impl =
  let design, config =
    match impl with
    | Flexible ->
      (Pctrl.Controller.full_design (), Pctrl.Controller.bindings mode)
    | Bound -> (Pctrl.Controller.auto_design mode, [])
  in
  Fault.Sim.spec ~config ~done_signal:"resp" ~stimulus:(stimulus ~cycles)
    ~watch design

let models =
  [ Fault.Campaign.Control; Fault.Campaign.Tables; Fault.Campaign.Regs;
    Fault.Campaign.Stuck ]

let run ?(sites = 48) engine =
  let seed = 0 and cycles = default_cycles in
  (* The stuck-at population lives on the synthesized netlists: Fig. 9's
     Full and Auto cached compiles, so an engine that ran Fig. 9 serves
     both from memory. *)
  let netlists =
    Exp_common.netlists engine
      [ Fig9.job Pctrl.Controller.Cached Fig9.Full;
        Fig9.job Pctrl.Controller.Cached Fig9.Auto ]
  in
  let campaigns impl (result : Synth.Flow.result) =
    let spec = spec_of impl in
    let aig = { Fault.Sim.aig = result.Synth.Flow.aig; cycles; seed } in
    (* Only the stuck-at model reads the netlist. *)
    List.map
      (fun model ->
        { impl; model;
          report = Fault.Campaign.run ~engine ~aig ~seed ~sites ~model spec })
      models
  in
  List.concat (List.map2 campaigns [ Flexible; Bound ] netlists)

let vulnerability (r : Fault.Campaign.report) =
  if r.injected = 0 then None
  else Some (float_of_int (r.mismatches + r.hangs) /. float_of_int r.injected)

let print fmt rows =
  let body =
    List.map
      (fun { impl; model; report = r } ->
        [
          impl_name impl;
          Fault.Campaign.model_name model;
          Printf.sprintf "%d/%d" r.injected r.population;
          string_of_int r.masked;
          string_of_int r.mismatches;
          string_of_int r.hangs;
          string_of_int r.failed;
          (match vulnerability r with
           | None -> "-"
           | Some v -> Printf.sprintf "%.1f%%" (100.0 *. v));
        ])
      rows
  in
  Format.fprintf fmt
    "== Fault vulnerability: flexible PCtrl vs partially evaluated ==@.%s@."
    (Report.Table.render
       ~align:
         [ Report.Table.Left; Report.Table.Left; Report.Table.Right;
           Report.Table.Right; Report.Table.Right; Report.Table.Right;
           Report.Table.Right; Report.Table.Right ]
       ~header:
         [ "impl"; "model"; "sites"; "masked"; "mismatch"; "hang"; "failed";
           "vulnerable" ]
       body);
  let table_pop impl =
    List.fold_left
      (fun acc r ->
        if r.impl = impl && r.model = Fault.Campaign.Tables then
          acc + r.report.Fault.Campaign.population
        else acc)
      0 rows
  in
  Format.fprintf fmt
    "config-table bits at risk: flexible %d, bound %d (partial evaluation \
     folds the tables into logic)@.@."
    (table_pop Flexible) (table_pop Bound)

let to_json rows =
  Report.Json.List
    (List.map
       (fun { impl; model; report } ->
         match Fault.Campaign.to_json report with
         | Report.Json.Obj fields ->
           Report.Json.Obj
             (("impl", Report.Json.String (impl_name impl))
              :: ("model", Report.Json.String (Fault.Campaign.model_name model))
              :: List.filter (fun (k, _) -> k <> "rows" && k <> "model") fields)
         | j -> j)
       rows)
