let cone_cap ?(caps = [ 4; 6; 8; 10; 12; 14 ]) () =
  let cells = [ (16, 4); (64, 8); (256, 4) ] in
  let row cap =
    let ratios =
      List.map
        (fun (depth, width) ->
          let tt = Workload.Rand_table.generate ~seed:0 ~depth ~width in
          let flexible =
            Synth.Partial_eval.bind_tables
              (Core.Truth_table.to_flexible_rtl tt)
              [ Core.Truth_table.config_binding tt ]
          in
          let direct = Core.Truth_table.to_sop_rtl tt in
          let options = { Synth.Flow.default with collapse_cap = cap } in
          Exp_common.compile_area ~options flexible
          /. Exp_common.compile_area ~options direct)
        cells
    in
    string_of_int cap
    :: List.map Report.Table.fmt_ratio ratios
    @ [ Report.Table.fmt_ratio (Exp_common.geomean ratios) ]
  in
  Exp_common.printf
    "== Ablation A1: collapse window cap vs table/direct area ratio ==@.%s@.@."
    (Report.Table.render
       ~header:
         ("cap"
          :: List.map (fun (d, w) -> Printf.sprintf "%dx%d" d w) cells
          @ [ "geomean" ])
       (List.map row caps))

let twolevel ?(nvars_list = [ 4; 6; 8 ]) ?(seeds = [ 0; 1; 2 ]) () =
  let random_fn nvars seed =
    let rng = Workload.Rng.make (Hashtbl.hash ("ablate2", nvars, seed)) in
    Twolevel.Truthfn.of_fun ~nvars (fun _ ->
        if Workload.Rng.int rng 100 < 35 then Twolevel.Truthfn.On
        else if Workload.Rng.int rng 100 < 8 then Twolevel.Truthfn.Dc
        else Twolevel.Truthfn.Off)
  in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let rows =
    List.concat_map
      (fun nvars ->
        List.map
          (fun seed ->
            let tf = random_fn nvars seed in
            let qm, tq = time (fun () -> Twolevel.Qm.minimize ~exact:true tf) in
            let esp, te = time (fun () -> Twolevel.Espresso.minimize tf) in
            ( [
                string_of_int nvars;
                string_of_int seed;
                string_of_int (Twolevel.Cover.num_cubes qm);
                string_of_int (Twolevel.Cover.literals qm);
                string_of_int (Twolevel.Cover.num_cubes esp);
                string_of_int (Twolevel.Cover.literals esp);
              ],
              [
                string_of_int nvars;
                string_of_int seed;
                Printf.sprintf "%.4f" tq;
                Printf.sprintf "%.4f" te;
              ] ))
          seeds)
      nvars_list
  in
  (* CPU times vary run to run, so they go to stderr: stdout stays
     byte-identical across runs. *)
  Exp_common.printf
    "== Ablation A2: exact QM vs Espresso-lite ==@.%s@.@."
    (Report.Table.render
       ~header:
         [ "nvars"; "seed"; "qm cubes"; "qm lits"; "esp cubes"; "esp lits" ]
       (List.map fst rows));
  Format.eprintf "A2 minimizer CPU time:@.%s@.@."
    (Report.Table.render
       ~header:[ "nvars"; "seed"; "qm s"; "esp s" ]
       (List.map snd rows))

let encodings ?(cases = [ (2, 8, 3); (2, 16, 17); (8, 8, 8); (8, 8, 17) ]) () =
  let row (m, n, s) =
    let fsm =
      Workload.Rand_fsm.generate ~seed:0 ~num_inputs:m ~num_outputs:n
        ~num_states:s
    in
    let area ?options d = Exp_common.compile_area ?options d in
    let direct enc = area (Core.Fsm_ir.to_direct_rtl ~encoding:enc fsm) in
    let direct_annotated enc =
      area ~options:Exp_common.annotated_flow
        (Core.Fsm_ir.to_direct_rtl ~encoding:enc fsm)
    in
    [
      Printf.sprintf "%d/%d/%d" m n s;
      Report.Table.fmt_area (direct Core.Fsm_ir.Binary);
      Report.Table.fmt_area (direct Core.Fsm_ir.Gray);
      Report.Table.fmt_area (direct Core.Fsm_ir.One_hot);
      Report.Table.fmt_area (direct_annotated Core.Fsm_ir.One_hot);
    ]
  in
  Exp_common.printf
    "== Ablation A4: state encodings on direct FSMs ==@.%s@.@."
    (Report.Table.render
       ~align:
         [ Report.Table.Left; Report.Table.Right; Report.Table.Right;
           Report.Table.Right; Report.Table.Right ]
       ~header:[ "m/n/s"; "binary"; "gray"; "one-hot"; "one-hot+annot" ]
       (List.map row cases))

let library_richness ?(cases = [ (64, 8); (256, 16) ]) () =
  (* The "discrete nature of the standard cell library": the same netlist
     mapped with and without the 3-input cells. *)
  let row (depth, width) =
    let tt = Workload.Rand_table.generate ~seed:0 ~depth ~width in
    let d =
      Synth.Partial_eval.bind_tables
        (Core.Truth_table.to_flexible_rtl tt)
        [ Core.Truth_table.config_binding tt ]
    in
    let aig = (Synth.Flow.compile Exp_common.lib d).Synth.Flow.aig in
    let full = Synth.Map.run Exp_common.lib aig in
    let simple = Synth.Map.run ~complex_cells:false Exp_common.lib aig in
    [
      Printf.sprintf "%dx%d" depth width;
      Report.Table.fmt_area (Synth.Map.total full);
      Printf.sprintf "%.3f" full.Synth.Map.critical_delay;
      Report.Table.fmt_area (Synth.Map.total simple);
      Printf.sprintf "%.3f" simple.Synth.Map.critical_delay;
      Report.Table.fmt_ratio (Synth.Map.total full /. Synth.Map.total simple);
    ]
  in
  Exp_common.printf
    "== Ablation A5: cell-library richness (with vs without 3-input cells) ==@.%s@.@."
    (Report.Table.render
       ~header:
         [ "design"; "full um^2"; "full ns"; "2-in um^2"; "2-in ns"; "ratio" ]
       (List.map row cases))

let microcode_style () =
  (* Horizontal vs vertical microcode stores (paper Section II-B) on the
     PCtrl dispatch programs. *)
  let row (name, p) =
    let bits style =
      Rtl.Design.config_bit_count
        (Core.Microcode.to_rtl ~style ~storage:`Config p)
    in
    let area style =
      Exp_common.compile_area (Core.Microcode.to_rtl ~style ~storage:`Config p)
    in
    let bound_area style =
      Exp_common.compile_area
        (Synth.Partial_eval.bind_tables
           (Core.Microcode.to_rtl ~style ~storage:`Config p)
           (Core.Microcode.config_bindings ~style p))
    in
    [
      name;
      string_of_int (Core.Microcode.depth p);
      string_of_int (Core.Microcode.distinct_control_words p);
      string_of_int (bits `Horizontal);
      string_of_int (bits `Vertical);
      Report.Table.fmt_area (area `Horizontal);
      Report.Table.fmt_area (area `Vertical);
      Report.Table.fmt_area (bound_area `Horizontal);
      Report.Table.fmt_area (bound_area `Vertical);
    ]
  in
  Exp_common.printf
    "== Ablation A6: horizontal vs vertical microcode ==@.%s\
     (partial evaluation erases the difference: both bound areas converge)@.@."
    (Report.Table.render
       ~align:
         (Report.Table.Left :: List.init 8 (fun _ -> Report.Table.Right))
       ~header:
         [ "program"; "uops"; "words"; "h bits"; "v bits"; "h flex";
           "v flex"; "h bound"; "v bound" ]
       (List.map row
          [
            ("pctrl-cached", Pctrl.Dispatch.program Pctrl.Dispatch.Cached);
            ("pctrl-uncached", Pctrl.Dispatch.program Pctrl.Dispatch.Uncached);
          ]))

let annot_cap ?(n = 64) ?(caps = [ 8; 16; 32; 64; 128 ]) () =
  let generic =
    Onehot_design.generic ~n ~style:(Onehot_design.Flop Rtl.Design.Sync_reset)
  in
  let direct =
    Onehot_design.direct ~n ~style:(Onehot_design.Flop Rtl.Design.Sync_reset)
  in
  let rows =
    List.map
      (fun cap ->
        let options =
          { Synth.Flow.default with
            honor_generator_annots = true;
            annot_width_cap = cap }
        in
        let g = Exp_common.compile_area ~options generic in
        let d = Exp_common.compile_area ~options direct in
        [
          string_of_int cap;
          Report.Table.fmt_area g;
          Report.Table.fmt_area d;
          Report.Table.fmt_ratio (g /. d);
          (if cap >= n then "honoured" else "ignored");
        ])
      caps
  in
  Exp_common.printf
    "== Ablation A3: annotation width cap at bus width n=%d ==@.%s@.@." n
    (Report.Table.render
       ~header:[ "cap"; "generic"; "direct"; "ratio"; "annotation" ]
       rows)
