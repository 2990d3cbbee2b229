let cone_cap fmt engine =
  let caps = [ 4; 6; 8; 10; 12; 14 ] in
  let cells = [ (16, 4); (64, 8); (256, 4) ] in
  let designs =
    List.map
      (fun (depth, width) ->
        let tt = Workload.Rand_table.generate ~seed:0 ~depth ~width in
        ( Synth.Partial_eval.bind_tables
            (Core.Truth_table.to_flexible_rtl tt)
            [ Core.Truth_table.config_binding tt ],
          Core.Truth_table.to_sop_rtl tt ))
      cells
  in
  let jobs cap =
    let options = { Synth.Flow.default with collapse_cap = cap } in
    List.concat_map
      (fun (flexible, direct) ->
        [ Engine.job ~options flexible; Engine.job ~options direct ])
      designs
  in
  (* Each cap's areas alternate flexible and direct. *)
  let rec ratios = function
    | a :: b :: rest ->
      (Exp_common.fmt_ratio_result a b, Exp_common.ratio_opt a b) :: ratios rest
    | _ -> []
  in
  let row (cap, areas) =
    let cells, members = List.split (ratios areas) in
    (string_of_int cap :: cells)
    @ [ Report.Table.fmt_ratio
          (Exp_common.geomean (List.filter_map Fun.id members)) ]
  in
  Format.fprintf fmt
    "== Ablation A1: collapse window cap vs table/direct area ratio ==@.%s@.@."
    (Report.Table.render
       ~header:
         ("cap"
          :: List.map (fun (d, w) -> Printf.sprintf "%dx%d" d w) cells
          @ [ "geomean" ])
       (List.map row (Exp_common.sweep Exp_common.areas engine jobs caps)))

let twolevel fmt =
  let nvars_list = [ 4; 6; 8 ] and seeds = [ 0; 1; 2 ] in
  let random_fn nvars seed =
    let rng = Workload.Rng.make (Hashtbl.hash ("ablate2", nvars, seed)) in
    Twolevel.Truthfn.of_fun ~nvars (fun _ ->
        if Workload.Rng.int rng 100 < 35 then Twolevel.Truthfn.On
        else if Workload.Rng.int rng 100 < 8 then Twolevel.Truthfn.Dc
        else Twolevel.Truthfn.Off)
  in
  (* Each minimizer call is a span, so its time is read from --metrics or
     a trace and stdout stays byte-identical across runs. *)
  let span name nvars seed f =
    Obs.Span.with_span
      ~args:[ ("nvars", Obs.Span.Int nvars); ("seed", Obs.Span.Int seed) ]
      name f
  in
  let row nvars seed =
    let tf = random_fn nvars seed in
    let qm = span "twolevel.qm" nvars seed (fun () -> Twolevel.Qm.minimize tf) in
    let esp =
      span "twolevel.espresso" nvars seed (fun () ->
          Twolevel.Espresso.minimize tf)
    in
    [
      string_of_int nvars;
      string_of_int seed;
      string_of_int (Twolevel.Cover.num_cubes qm);
      string_of_int (Twolevel.Cover.literals qm);
      string_of_int (Twolevel.Cover.num_cubes esp);
      string_of_int (Twolevel.Cover.literals esp);
    ]
  in
  Format.fprintf fmt
    "== Ablation A2: exact QM vs Espresso-lite ==@.%s@.@."
    (Report.Table.render
       ~header:
         [ "nvars"; "seed"; "qm cubes"; "qm lits"; "esp cubes"; "esp lits" ]
       (List.concat_map
          (fun nvars -> List.map (row nvars) seeds)
          nvars_list))

let encodings fmt engine =
  let cases = [ (2, 8, 3); (2, 16, 17); (8, 8, 8); (8, 8, 17) ] in
  let jobs (m, n, s) =
    let fsm =
      Workload.Rand_fsm.generate ~seed:0 ~num_inputs:m ~num_outputs:n
        ~num_states:s
    in
    let direct enc = Core.Fsm_ir.to_direct_rtl ~encoding:enc fsm in
    [ Engine.job (direct Core.Fsm_ir.Binary);
      Engine.job (direct Core.Fsm_ir.Gray);
      Engine.job (direct Core.Fsm_ir.One_hot);
      Engine.job ~options:Exp_common.annotated_flow
        (direct Core.Fsm_ir.One_hot) ]
  in
  let row ((m, n, s), areas) =
    Printf.sprintf "%d/%d/%d" m n s
    :: List.map Exp_common.fmt_area_result areas
  in
  Format.fprintf fmt
    "== Ablation A4: state encodings on direct FSMs ==@.%s@.@."
    (Report.Table.render
       ~align:
         [ Report.Table.Left; Report.Table.Right; Report.Table.Right;
           Report.Table.Right; Report.Table.Right ]
       ~header:[ "m/n/s"; "binary"; "gray"; "one-hot"; "one-hot+annot" ]
       (List.map row (Exp_common.sweep Exp_common.areas engine jobs cases)))

let library_richness fmt engine =
  let cases = [ (64, 8); (256, 16) ] in
  (* The "discrete nature of the standard cell library": the same netlist
     mapped with and without the 3-input cells. *)
  let job (depth, width) =
    let tt = Workload.Rand_table.generate ~seed:0 ~depth ~width in
    Engine.job
      (Synth.Partial_eval.bind_tables
         (Core.Truth_table.to_flexible_rtl tt)
         [ Core.Truth_table.config_binding tt ])
  in
  let row ((depth, width), result) =
    Printf.sprintf "%dx%d" depth width
    ::
    (match result with
     | [ Ok (r : Synth.Flow.result) ] ->
       let full = r.Synth.Flow.report in
       let simple, _ =
         Synth.Map.run_full ~complex_cells:false Exp_common.lib r.Synth.Flow.aig
       in
       [ Report.Table.fmt_area (Synth.Map.total full);
         Printf.sprintf "%.3f" full.Synth.Map.critical_delay;
         Report.Table.fmt_area (Synth.Map.total simple);
         Printf.sprintf "%.3f" simple.Synth.Map.critical_delay;
         Report.Table.fmt_ratio (Synth.Map.total full /. Synth.Map.total simple) ]
     | _ -> List.init 5 (fun _ -> "FAIL"))
  in
  Format.fprintf fmt
    "== Ablation A5: cell-library richness (with vs without 3-input cells) ==@.%s@.@."
    (Report.Table.render
       ~header:
         [ "design"; "full um^2"; "full ns"; "2-in um^2"; "2-in ns"; "ratio" ]
       (List.map row
          (Exp_common.sweep Engine.netlists engine (fun c -> [ job c ]) cases)))

let microcode_style fmt engine =
  (* Horizontal vs vertical microcode stores (paper Section II-B) on the
     PCtrl dispatch programs. *)
  let flexible p style = Core.Microcode.to_rtl ~style p in
  let jobs (_, p) =
    let bound style =
      Synth.Partial_eval.bind_tables (flexible p style)
        (Core.Microcode.config_bindings ~style p)
    in
    List.map Engine.job
      [ flexible p `Horizontal; flexible p `Vertical; bound `Horizontal;
        bound `Vertical ]
  in
  let row ((name, p), areas) =
    let bits style = Rtl.Design.config_bit_count (flexible p style) in
    name
    :: string_of_int (Core.Microcode.depth p)
    :: string_of_int (Core.Microcode.distinct_control_words p)
    :: string_of_int (bits `Horizontal)
    :: string_of_int (bits `Vertical)
    :: List.map Exp_common.fmt_area_result areas
  in
  let programs =
    [ ("pctrl-cached", Pctrl.Dispatch.program Pctrl.Dispatch.Cached);
      ("pctrl-uncached", Pctrl.Dispatch.program Pctrl.Dispatch.Uncached) ]
  in
  Format.fprintf fmt
    "== Ablation A6: horizontal vs vertical microcode ==@.%s\
     (partial evaluation erases the difference: both bound areas converge)@.@."
    (Report.Table.render
       ~align:
         (Report.Table.Left :: List.init 8 (fun _ -> Report.Table.Right))
       ~header:
         [ "program"; "uops"; "words"; "h bits"; "v bits"; "h flex";
           "v flex"; "h bound"; "v bound" ]
       (List.map row (Exp_common.sweep Exp_common.areas engine jobs programs)))

let annot_cap fmt engine =
  let n = 64 and caps = [ 8; 16; 32; 64; 128 ] in
  let style = Onehot_design.Flop Rtl.Design.Sync_reset in
  let generic = Onehot_design.generic ~n ~style
  and direct = Onehot_design.direct ~n ~style in
  let jobs cap =
    let options =
      { Synth.Flow.default with
        honor_generator_annots = true;
        annot_width_cap = cap }
    in
    [ Engine.job ~options generic; Engine.job ~options direct ]
  in
  let row (cap, areas) =
    match areas with
    | [ g; d ] ->
      [ string_of_int cap; Exp_common.fmt_area_result g;
        Exp_common.fmt_area_result d; Exp_common.fmt_ratio_result g d;
        (if cap >= n then "honoured" else "ignored") ]
    | _ -> assert false
  in
  Format.fprintf fmt
    "== Ablation A3: annotation width cap at bus width n=%d ==@.%s@.@." n
    (Report.Table.render
       ~header:[ "cap"; "generic"; "direct"; "ratio"; "annotation" ]
       (List.map row (Exp_common.sweep Exp_common.areas engine jobs caps)))
