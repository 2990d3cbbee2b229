type variant = Regular | Retimed | Annotated

type row = {
  n : int;
  style_name : string;
  variant : variant;
  generic_area : (float, string) result;
  direct_area : (float, string) result;
}

let variant_name = function
  | Regular -> "regular"
  | Retimed -> "retimed"
  | Annotated -> "annotated"

let flow_of = function
  | Regular -> Exp_common.default_flow
  | Retimed -> Exp_common.retimed_flow
  | Annotated -> Exp_common.annotated_flow

let run ?(widths = Onehot_design.paper_widths) engine =
  let points =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun style ->
            List.map
              (fun variant -> (n, style, variant))
              [ Regular; Retimed; Annotated ])
          Onehot_design.all_styles)
      widths
  in
  let jobs (n, (_, style), variant) =
    let options = flow_of variant in
    [ Engine.job ~options (Onehot_design.generic ~n ~style);
      Engine.job ~options (Onehot_design.direct ~n ~style) ]
  in
  List.map
    (fun ((n, (style_name, _), variant), areas) ->
      match areas with
      | [ generic_area; direct_area ] ->
        { n; style_name; variant; generic_area; direct_area }
      | _ -> assert false)
    (Exp_common.sweep Exp_common.areas engine jobs points)

let print fmt rows =
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.n;
          r.style_name;
          variant_name r.variant;
          Exp_common.fmt_area_result r.generic_area;
          Exp_common.fmt_area_result r.direct_area;
          Exp_common.fmt_ratio_result r.generic_area r.direct_area;
        ])
      rows
  in
  Format.fprintf fmt
    "== Fig. 8: one-hot bus behind a flop — generic vs direct ==@.%s@."
    (Report.Table.render
       ~align:
         [ Report.Table.Right; Report.Table.Left; Report.Table.Left;
           Report.Table.Right; Report.Table.Right; Report.Table.Right ]
       ~header:[ "n"; "flop"; "variant"; "generic"; "direct"; "ratio" ]
       body);
  let classifiable r =
    match (r.generic_area, r.direct_area) with
    | Ok _, Ok _ -> true
    | _ -> false
  in
  let ideal r =
    match (r.generic_area, r.direct_area) with
    | Ok g, Ok d -> g <= (d *. 1.02) +. 1.0
    | _ -> false
  in
  let classify pred label =
    (* Failed compiles can't be classified either way; they drop out of the
       counts and surface through Engine.failures instead. *)
    let sub = List.filter (fun r -> pred r && classifiable r) rows in
    let good = List.length (List.filter ideal sub) in
    Format.fprintf fmt "%-32s %d/%d ideal@." label good (List.length sub)
  in
  classify (fun r -> r.style_name = "comb") "combinational (any variant):";
  classify
    (fun r -> r.style_name <> "comb" && r.variant = Regular)
    "flopped, regular:";
  classify
    (fun r -> r.style_name = "noreset" && r.variant = Retimed)
    "flopped no-reset, retimed:";
  classify
    (fun r ->
      (r.style_name = "sync" || r.style_name = "async") && r.variant = Retimed)
    "flopped with reset, retimed:";
  classify
    (fun r -> r.style_name <> "comb" && r.variant = Annotated && r.n <= 32)
    "flopped, annotated, n<=32:";
  classify
    (fun r -> r.style_name <> "comb" && r.variant = Annotated && r.n > 32)
    "flopped, annotated, n>32:";
  Format.fprintf fmt "@."
