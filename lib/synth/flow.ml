type options = {
  collapse_cap : int;
  honor_generator_annots : bool;
  annot_width_cap : int;
  retime : bool;
}

let default =
  {
    collapse_cap = 14;
    honor_generator_annots = false;
    annot_width_cap = 32;
    retime = false;
  }

type result = {
  aig : Aig.t;
  report : Map.report;
  instances : (int, Map.instance) Hashtbl.t;
}

let area r = Map.total r.report

(* --------------------------------------------------------------- tracing *)

(* Every pass boundary is a span carrying the AIG size before and after,
   so a trace alone answers "which pass spent the time and which removed
   the nodes" per pass and per iteration; the same deltas accumulate into
   process counters for the --metrics table. All of it is skipped (single
   atomic load) when observability is off. *)

let max_level g =
  let lv = Aig.levels g in
  let m = ref 0 in
  for i = 0 to Aig.num_nodes g - 1 do
    m := max !m (lv i)
  done;
  !m

let graph_args tag g =
  [
    (tag ^ "_ands", Obs.Span.Int (Aig.num_ands g));
    (tag ^ "_latches", Obs.Span.Int (Aig.num_latches g));
    (tag ^ "_level", Obs.Span.Int (max_level g));
  ]

let traced_pass name ~iter f g =
  if not (Obs.enabled ()) then f g
  else
    Obs.Span.with_span
      ~args:(("iter", Obs.Span.Int iter) :: graph_args "in" g)
      ("flow." ^ name)
      (fun () ->
        let g' = f g in
        Obs.Span.add_args
          (graph_args "out" g'
           @ [
               ("delta_ands", Obs.Span.Int (Aig.num_ands g' - Aig.num_ands g));
               ( "delta_latches",
                 Obs.Span.Int (Aig.num_latches g' - Aig.num_latches g) );
             ]);
        Obs.Metrics.incr
          ~by:(Aig.num_ands g - Aig.num_ands g')
          (Obs.Metrics.counter ("synth.flow." ^ name ^ ".ands_removed"));
        Obs.Metrics.incr
          ~by:(Aig.num_latches g - Aig.num_latches g')
          (Obs.Metrics.counter ("synth.flow." ^ name ^ ".latches_removed"));
        g')

(* ---------------------------------------------------------------- flow *)

let collapse_skipped = Obs.Metrics.counter "synth.flow.collapse.skipped"

let compile ?(options = default) ?(memo = Collapse.create_memo ()) lib design =
  Obs.Span.with_span
    ~args:[ ("design", Obs.Span.Str design.Rtl.Design.name) ]
    "flow.compile"
  @@ fun () ->
  Obs.Metrics.incr (Obs.Metrics.counter "synth.flow.compiles");
  let lowered =
    Obs.Span.with_span "flow.lower" (fun () ->
        let l = Lower.run design in
        if Obs.enabled () then Obs.Span.add_args (graph_args "out" l.Lower.aig);
        l)
  in
  let honored =
    Annots.honored ~generator:options.honor_generator_annots
      ~width_cap:options.annot_width_cap (Annots.extract lowered)
  in
  let relocate g = List.filter_map (Annots.relocate g) honored in
  let g = traced_pass "sweep" ~iter:1 Sweep.run lowered.Lower.aig in
  let g = if options.retime then traced_pass "retime" ~iter:1 Retime.run g else g in
  let g =
    if honored <> [] then
      traced_pass "stateprop" ~iter:1
        (fun g -> Stateprop.run ~annots:(relocate g) g)
        g
    else g
  in
  let collapse iter g =
    traced_pass "collapse" ~iter
      (fun g ->
        Collapse.run ~cap:options.collapse_cap ~memo ~annots:(relocate g) g)
      g
  in
  (* Two collapse/sweep iterations, unless the first is a fixpoint: both
     passes are deterministic functions of the graph (the annotations are
     relocated by latch name), so when sweep returns a graph equal to
     collapse's input, a second iteration would rebuild the same graph. *)
  let g =
    let g1 = traced_pass "sweep" ~iter:2 Sweep.run (collapse 1 g) in
    if Aig.equal g1 g then begin
      Obs.Metrics.incr collapse_skipped;
      g1
    end
    else traced_pass "sweep" ~iter:3 Sweep.run (collapse 2 g1)
  in
  let report, instances =
    Obs.Span.with_span "flow.map" ~args:(if Obs.enabled () then graph_args "in" g else [])
      (fun () ->
        let ((r, _) as mapped) = Map.run_full lib g in
        if Obs.enabled () then
          Obs.Span.add_args [ ("area", Obs.Span.Float (Map.total r)) ];
        mapped)
  in
  { aig = g; report; instances }
