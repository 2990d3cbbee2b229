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

let modes = [ Pctrl.Controller.Cached; Pctrl.Controller.Uncached ]

let variants =
  (Pctrl.Controller.Cached, Full)
  :: List.concat_map (fun mode -> [ (mode, Auto); (mode, Manual) ]) modes

let variant_name mode level =
  level_name level ^ if level = Full then "" else " " ^ mode_name mode

let job mode level =
  let design, options =
    match level with
    | Full -> (Pctrl.Controller.full_design (), Exp_common.default_flow)
    | Auto -> (Pctrl.Controller.auto_design mode, Exp_common.default_flow)
    | Manual -> (Pctrl.Controller.manual_design mode, Exp_common.annotated_flow)
  in
  { (Engine.job ~options design) with
    Engine.jname = "pctrl " ^ variant_name mode level }

let rows engine =
  let row (mode, level) (result : Synth.Flow.result) =
    (* The flexible design must be *programmed* before its activity means
       anything: load the mode's microcode into the configuration bits. *)
    let config = if level = Full then Pctrl.Controller.bindings mode else [] in
    let report = result.Synth.Flow.report in
    let power =
      Synth.Power.total
        (Synth.Power.estimate ~config Exp_common.lib
           result.Synth.Flow.aig report result.Synth.Flow.instances)
    in
    { mode; level; comb = report.Synth.Map.comb_area;
      seq = report.Synth.Map.seq_area; power }
  in
  (* Both Full rows come from one compile, estimated at once so the large
     flexible netlist is dead, unless the engine caches it, before the
     other compiles run as one batch. A variant that failed has no row. *)
  let compile variants =
    List.concat_map
      (function
        | (_, Full), [ Ok r ] -> List.map (fun m -> row (m, Full) r) modes
        | v, [ Ok r ] -> [ row v r ]
        | _ -> [])
      (Exp_common.sweep Engine.netlists engine (fun (m, l) -> [ job m l ])
         variants)
  in
  let full = compile [ List.hd variants ] in
  let others = compile (List.tl variants) in
  List.concat_map (fun m -> List.filter (fun r -> r.mode = m) (full @ others)) modes

let run () = rows (Engine.create ~no_cache:true Exp_common.lib)

let print fmt rows =
  let find mode level =
    List.find_opt (fun r -> r.mode = mode && r.level = level) rows
  in
  let levels = [ Full; Auto; Manual ] in
  let line mode level =
    mode_name mode :: level_name level
    ::
    (match find mode level with
     | Some r ->
       List.map Report.Table.fmt_area [ r.comb; r.seq; r.comb +. r.seq; r.power ]
     | None -> List.init 4 (fun _ -> "FAIL"))
  in
  Format.fprintf fmt "== Fig. 9: PCtrl area by optimization level ==@.%s@."
    (Report.Table.render
       ~align:
         [ Report.Table.Left; Report.Table.Left; Report.Table.Right;
           Report.Table.Right; Report.Table.Right; Report.Table.Right ]
       ~header:[ "config"; "level"; "comb um^2"; "seq um^2"; "total"; "power" ]
       (List.concat_map (fun mode -> List.map (line mode) levels) modes));
  let summarize mode =
    match List.map (find mode) levels with
    | [ Some f; Some a; Some m ] ->
      Format.fprintf fmt
        "%s: auto/full comb %.2f, seq %.2f, power %.2f; manual saves %.1f%% area, %.1f%% power over auto@."
        (mode_name mode) (a.comb /. f.comb) (a.seq /. f.seq) (a.power /. f.power)
        (100.0 *. (1.0 -. ((m.comb +. m.seq) /. (a.comb +. a.seq))))
        (100.0 *. (1.0 -. (m.power /. a.power)))
    | _ -> ()
  in
  List.iter summarize modes;
  Format.fprintf fmt "@."
