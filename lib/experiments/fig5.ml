type row = {
  depth : int;
  width : int;
  seed : int;
  table_area : (float, string) result;
  sop_area : (float, string) result;
}

let quick_grid =
  [ (2, 2); (8, 4); (16, 4); (32, 16); (64, 16); (256, 4); (1024, 2) ]

let run ?(seeds = [ 0; 1; 2 ]) ?(grid = Workload.Rand_table.paper_grid)
    engine =
  let points =
    List.concat_map (fun cell -> List.map (fun seed -> (cell, seed)) seeds) grid
  in
  (* The compiles of every point go to the engine as one batch, so a
     parallel engine spreads the whole sweep over its workers. *)
  let jobs ((depth, width), seed) =
    let tt = Workload.Rand_table.generate ~seed ~depth ~width in
    let flexible =
      Synth.Partial_eval.bind_tables
        (Core.Truth_table.to_flexible_rtl tt)
        [ Core.Truth_table.config_binding tt ]
    in
    [ Engine.job flexible; Engine.job (Core.Truth_table.to_sop_rtl tt) ]
  in
  List.map
    (fun (((depth, width), seed), areas) ->
      match areas with
      | [ table_area; sop_area ] -> { depth; width; seed; table_area; sop_area }
      | _ -> assert false)
    (Exp_common.sweep engine jobs points)

let print fmt rows =
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.depth;
          string_of_int r.width;
          string_of_int r.seed;
          Exp_common.fmt_area_result r.table_area;
          Exp_common.fmt_area_result r.sop_area;
          Exp_common.fmt_ratio_result r.table_area r.sop_area;
        ])
      rows
  in
  Format.fprintf fmt
    "== Fig. 5: combinational tables, partially evaluated vs direct SOP ==@.%s@."
    (Report.Table.render
       ~header:[ "depth"; "width"; "seed"; "table um^2"; "sop um^2"; "ratio" ]
       body);
  let ratios =
    List.filter_map (fun r -> Exp_common.ratio_opt r.table_area r.sop_area) rows
  in
  let table_wins = List.length (List.filter (fun x -> x < 1.0) ratios) in
  if ratios = [] then
    Format.fprintf fmt "points: %d  (no classifiable points)@.@."
      (List.length rows)
  else
    Format.fprintf fmt
      "points: %d  geomean(table/sop): %.3f  min %.2f  max %.2f  table-better: %d@.@."
      (List.length rows)
      (Exp_common.geomean ratios)
      (List.fold_left min infinity ratios)
      (List.fold_left max 0.0 ratios)
      table_wins
