type level = Full | Auto | Manual

type row = {
  mode : Pctrl.Controller.mode;
  level : level;
  comb : float;
  seq : float;
  power : float;
}

let level_name = function Full -> "full" | Auto -> "auto" | Manual -> "manual"

let mode_name = function
  | Pctrl.Controller.Cached -> "cached"
  | Pctrl.Controller.Uncached -> "uncached"

let run () =
  let compile ?options d = Synth.Flow.compile ?options Exp_common.lib d in
  let row mode level (result : Synth.Flow.result) ~config =
    let report = result.Synth.Flow.report in
    let power =
      Synth.Power.total
        (Synth.Power.estimate ~config Exp_common.lib
           result.Synth.Flow.aig report result.Synth.Flow.instances)
    in
    { mode; level; comb = report.Synth.Map.comb_area;
      seq = report.Synth.Map.seq_area; power }
  in
  let modes = [ Pctrl.Controller.Cached; Pctrl.Controller.Uncached ] in
  (* Both Full rows come from one compile, estimated at once so the large
     flexible netlist is dead before the other compiles. The flexible
     design must be *programmed* before its activity means anything: load
     the mode's microcode into the configuration bits. *)
  let full =
    let result = compile (Pctrl.Controller.full_design ()) in
    List.map
      (fun mode ->
        (mode, row mode Full result ~config:(Pctrl.Controller.bindings mode)))
      modes
  in
  List.concat_map
    (fun mode ->
      let auto =
        row mode Auto (compile (Pctrl.Controller.auto_design mode)) ~config:[]
      in
      let manual =
        row mode Manual
          (compile ~options:Exp_common.annotated_flow
             (Pctrl.Controller.manual_design mode))
          ~config:[]
      in
      [ List.assoc mode full; auto; manual ])
    modes

let print fmt rows =
  let body =
    List.map
      (fun r ->
        [
          mode_name r.mode;
          level_name r.level;
          Report.Table.fmt_area r.comb;
          Report.Table.fmt_area r.seq;
          Report.Table.fmt_area (r.comb +. r.seq);
          Report.Table.fmt_area r.power;
        ])
      rows
  in
  Format.fprintf fmt "== Fig. 9: PCtrl area by optimization level ==@.%s@."
    (Report.Table.render
       ~align:
         [ Report.Table.Left; Report.Table.Left; Report.Table.Right;
           Report.Table.Right; Report.Table.Right; Report.Table.Right ]
       ~header:[ "config"; "level"; "comb um^2"; "seq um^2"; "total"; "power" ]
       body);
  let find mode level =
    List.find (fun r -> r.mode = mode && r.level = level) rows
  in
  let summarize mode =
    let f = find mode Full and a = find mode Auto and m = find mode Manual in
    Format.fprintf fmt
      "%s: auto/full comb %.2f, seq %.2f, power %.2f; manual saves %.1f%% area, %.1f%% power over auto@."
      (mode_name mode) (a.comb /. f.comb) (a.seq /. f.seq) (a.power /. f.power)
      (100.0 *. (1.0 -. ((m.comb +. m.seq) /. (a.comb +. a.seq))))
      (100.0 *. (1.0 -. (m.power /. a.power)))
  in
  summarize Pctrl.Controller.Cached;
  summarize Pctrl.Controller.Uncached;
  Format.fprintf fmt "@."
