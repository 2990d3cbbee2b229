type row = {
  m : int;
  n : int;
  s : int;
  seed : int;
  direct_area : (float, string) result;
  regular_area : (float, string) result;
  annotated_area : (float, string) result;
}

let quick_grid = [ (2, 2, 2); (2, 8, 3); (2, 16, 17); (8, 8, 8); (8, 2, 17) ]

let run ?(seeds = [ 0; 1; 2 ]) ?(grid = Workload.Rand_fsm.paper_grid)
    engine =
  let points =
    List.concat_map (fun cell -> List.map (fun seed -> (cell, seed)) seeds) grid
  in
  let jobs ((m, n, s), seed) =
    let fsm =
      Workload.Rand_fsm.generate ~seed ~num_inputs:m ~num_outputs:n
        ~num_states:s
    in
    let bind d =
      Synth.Partial_eval.bind_tables d (Core.Fsm_ir.config_bindings fsm)
    in
    [ Engine.job (Core.Fsm_ir.to_direct_rtl fsm);
      Engine.job (bind (Core.Fsm_ir.to_flexible_rtl ~annotate:false fsm));
      Engine.job ~options:Exp_common.annotated_flow
        (bind (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)) ]
  in
  List.map
    (fun (((m, n, s), seed), areas) ->
      match areas with
      | [ direct_area; regular_area; annotated_area ] ->
        { m; n; s; seed; direct_area; regular_area; annotated_area }
      | _ -> assert false)
    (Exp_common.sweep engine jobs points)

let print fmt rows =
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.m;
          string_of_int r.n;
          string_of_int r.s;
          string_of_int r.seed;
          Exp_common.fmt_area_result r.direct_area;
          Exp_common.fmt_area_result r.regular_area;
          Exp_common.fmt_area_result r.annotated_area;
          Exp_common.fmt_ratio_result r.regular_area r.direct_area;
          Exp_common.fmt_ratio_result r.annotated_area r.direct_area;
        ])
      rows
  in
  Format.fprintf fmt
    "== Fig. 6: FSMs, flexible tables vs direct case style ==@.%s@."
    (Report.Table.render
       ~header:
         [ "m"; "n"; "s"; "seed"; "direct"; "regular"; "annotated";
           "reg/dir"; "ann/dir" ]
       body);
  (* Degenerate controllers (everything folds to constants) have no
     meaningful ratio; neither do rows with a failed compile. [ratio_opt]
     leaves both out. *)
  let odd = List.filter (fun r -> r.s = 3 || r.s = 17) rows in
  let even = List.filter (fun r -> not (r.s = 3 || r.s = 17)) rows in
  let gm sel l = Exp_common.geomean (List.filter_map sel l) in
  let reg_dir r = Exp_common.ratio_opt r.regular_area r.direct_area in
  let ann_dir r = Exp_common.ratio_opt r.annotated_area r.direct_area in
  Format.fprintf fmt
    "geomean regular/direct: %.3f (s in {3,17}: %.3f; others: %.3f)@."
    (gm reg_dir rows) (gm reg_dir odd) (gm reg_dir even);
  Format.fprintf fmt "geomean annotated/direct: %.3f@.@."
    (gm ann_dir rows)
