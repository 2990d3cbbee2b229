(* Observability layer: span/metric semantics, the JSON parser they are
   validated through, and the headline contract — turning tracing and
   metrics on must not change a single byte of experiment stdout. *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ----------------------------------------------------------------- json *)

let rec json_equal a b =
  let open Report.Json in
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y ->
    List.length x = List.length y && List.for_all2 json_equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
         x y
  | _ -> false

let json_field k = function
  | Report.Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

let test_json_roundtrip () =
  let open Report.Json in
  let doc =
    Obj
      [
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("ints", List [ Int 0; Int 42; Int (-7); Int max_int ]);
        ("floats", List [ Float 1.5; Float (-0.25); Float 3.14159 ]);
        ("strings", List [ String ""; String "a\"b\\c\n\t"; String "µs/π" ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  match of_string (to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "roundtrip" true (json_equal doc doc')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_forms () =
  let open Report.Json in
  let ok s expect =
    match of_string s with
    | Ok v -> Alcotest.(check bool) ("parse " ^ s) true (json_equal expect v)
    | Error e -> Alcotest.failf "rejected %s: %s" s e
  in
  ok {| { "a" : [ 1 , 2.5 , null , true , "x\u0041" ] } |}
    (Obj [ ("a", List [ Int 1; Float 2.5; Null; Bool true; String "xA" ]) ]);
  ok "-12" (Int (-12));
  ok "1e3" (Float 1000.);
  ok "\"\\u00b5s\"" (String "µs")

let test_json_errors () =
  let bad s =
    match Report.Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
      Alcotest.(check bool) ("position in error for " ^ s) true
        (String.length e > 0)
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "12 34"; "\"unterminated"; "'x'";
      "{\"a\" 1}"; "[1 2]"; "nan" ]

(* ---------------------------------------------------------------- spans *)

let test_span_nesting () =
  with_obs @@ fun () ->
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "inner" (fun () -> ());
      Obs.Span.with_span "inner2" (fun () -> ()));
  let spans = Obs.Span.completed () in
  let find name = List.find (fun s -> s.Obs.Span.name = name) spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = find "outer" and inner = find "inner" and inner2 = find "inner2" in
  Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
  Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
  Alcotest.(check int) "inner2 depth" 1 inner2.Obs.Span.depth;
  (* Children close before the parent, and lie inside its interval. *)
  let ends (s : Obs.Span.finished) = s.start_us +. s.dur_us in
  Alcotest.(check bool) "inner within outer" true
    (inner.Obs.Span.start_us >= outer.Obs.Span.start_us
     && ends inner <= ends outer +. 1e-6);
  Alcotest.(check bool) "completion order" true
    (ends inner <= ends inner2 +. 1e-6);
  List.iter
    (fun (s : Obs.Span.finished) ->
      Alcotest.(check bool) (s.name ^ " dur >= 0") true (s.dur_us >= 0.))
    spans

let test_span_args () =
  with_obs @@ fun () ->
  Obs.Span.with_span ~args:[ ("k", Obs.Span.Int 1) ] "s" (fun () ->
      Obs.Span.add_args [ ("late", Obs.Span.Bool true) ]);
  match Obs.Span.completed () with
  | [ s ] ->
    Alcotest.(check bool) "initial arg" true
      (List.mem_assoc "k" s.Obs.Span.args);
    Alcotest.(check bool) "late arg" true
      (List.mem_assoc "late" s.Obs.Span.args);
    (* Initial args come before late ones. *)
    Alcotest.(check string) "order" "k" (fst (List.hd s.Obs.Span.args))
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_span_on_raise () =
  with_obs @@ fun () ->
  (try Obs.Span.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Obs.Span.completed ()))

let test_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  let ran = ref false in
  Obs.Span.with_span "ghost" (fun () -> ran := true);
  Alcotest.(check bool) "thunk ran" true !ran;
  Alcotest.(check int) "no span" 0 (List.length (Obs.Span.completed ()));
  let c = Obs.Metrics.counter "test.disabled.counter" in
  Obs.Metrics.incr c;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c)

(* -------------------------------------------------------------- metrics *)

let test_metric_kinds () =
  with_obs @@ fun () ->
  let c = Obs.Metrics.counter "test.kinds.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "test.kinds.gauge" in
  List.iter (Obs.Metrics.set_max g) [ 2; 1; 7; 3 ];
  (match List.assoc "test.kinds.gauge" (Obs.Metrics.snapshot ()) with
   | Obs.Metrics.Gauge_v v -> Alcotest.(check int) "high-water" 7 v
   | _ -> Alcotest.fail "gauge kind");
  (* Same name, different kind: rejected. *)
  (match Obs.Metrics.gauge "test.kinds.counter" with
   | _ -> Alcotest.fail "kind mismatch accepted"
   | exception Invalid_argument _ -> ());
  (* Reset zeroes in place; existing handles keep working. *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset counter" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.Metrics.counter_value c)

(* ------------------------------------------------------- span totals *)

(* A forest of span trees, one per domain. *)
type tree = Node of string * tree list

let rec gen_tree rng depth =
  let name = [| "a"; "b"; "c" |].(Workload.Rng.int rng 3) in
  let kids = if depth = 0 then 0 else Workload.Rng.int rng 4 in
  Node (name, List.init kids (fun _ -> gen_tree rng (depth - 1)))

let rec show_tree (Node (name, kids)) =
  if kids = [] then name
  else name ^ "(" ^ String.concat " " (List.map show_tree kids) ^ ")"

let arb_forest =
  Prop.make
    ~show:(fun ts -> String.concat " | " (List.map show_tree ts))
    (fun rng -> List.init (1 + Workload.Rng.int rng 3) (fun _ -> gen_tree rng 3))

(* Every span spends a few microseconds of its own before and after its
   children, so self times are not all zero. *)
let spin () =
  let t = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t < 2e-6 do () done

let rec run_tree (Node (name, kids)) =
  Obs.Span.with_span name (fun () ->
      spin ();
      List.iter run_tree kids;
      spin ())

let trace_forest = function
  | [] -> ()
  | t :: rest ->
    let helpers = List.map (fun t -> Domain.spawn (fun () -> run_tree t)) rest in
    run_tree t;
    List.iter Domain.join helpers

(* Brute force: a span's children are the spans of its domain one level
   deeper whose interval lies inside its own. *)
let oracle spans =
  let ends (s : Obs.Span.finished) = s.start_us +. s.dur_us in
  let self (s : Obs.Span.finished) =
    List.fold_left
      (fun acc (t : Obs.Span.finished) ->
        if t.tid = s.tid && t.depth = s.depth + 1
           && t.start_us >= s.start_us -. 1e-3 && ends t <= ends s +. 1e-3
        then acc -. t.dur_us
        else acc)
      s.dur_us spans
  in
  let names =
    List.sort_uniq String.compare
      (List.map (fun (s : Obs.Span.finished) -> s.name) spans)
  in
  List.map
    (fun name ->
      let mine = List.filter (fun (s : Obs.Span.finished) -> s.name = name) spans in
      let sum f = List.fold_left (fun a s -> a +. (f s /. 1e6)) 0.0 mine in
      ( name,
        { Obs.Span.count = List.length mine;
          total_s = sum (fun s -> s.Obs.Span.dur_us);
          self_s = sum self } ))
    names

let trace_event_names () =
  let path = Filename.temp_file "obs_totals" ".json" in
  Obs.Trace.write path;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  match Result.map (json_field "traceEvents") (Report.Json.of_string text) with
  | Ok (Some (Report.Json.List events)) ->
    List.filter_map
      (fun e ->
        match json_field "name" e with
        | Some (Report.Json.String n) -> Some n
        | _ -> None)
      events
  | _ -> []

let prop_totals_oracle forest =
  with_obs @@ fun () ->
  trace_forest forest;
  let spans = Obs.Span.completed () in
  let folded = Obs.Span.totals spans and expected = oracle spans in
  let events = trace_event_names () in
  let close a b = Float.abs (a -. b) < 1e-9 in
  List.map fst folded = List.map fst expected
  && List.for_all2
       (fun (_, (t : Obs.Span.total)) (_, (o : Obs.Span.total)) ->
         t.count = o.count && close t.total_s o.total_s
         && close t.self_s o.self_s)
       folded expected
  && List.for_all
       (fun (name, (t : Obs.Span.total)) ->
         t.count = List.length (List.filter (String.equal name) events))
       folded

(* ---------------------------------------------------------- flow spans *)

let test_flow_spans () =
  with_obs @@ fun () ->
  let d = Workload.Rand_design.generate ~seed:5 in
  ignore (Synth.Flow.compile Cells.Library.vt90 d);
  let spans = Obs.Span.completed () in
  let named n = List.filter (fun s -> s.Obs.Span.name = n) spans in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (named n <> []))
    [ "flow.compile"; "flow.lower"; "flow.sweep"; "flow.collapse"; "flow.map" ];
  Alcotest.(check int) "three sweep iterations" 3 (List.length (named "flow.sweep"));
  let compile = List.hd (named "flow.compile") in
  Alcotest.(check bool) "compile has design arg" true
    (List.mem_assoc "design" compile.Obs.Span.args);
  let ends (s : Obs.Span.finished) = s.start_us +. s.dur_us in
  List.iter
    (fun (s : Obs.Span.finished) ->
      Alcotest.(check bool) (s.name ^ " dur >= 0") true (s.dur_us >= 0.);
      if s.name <> "flow.compile" && s.tid = compile.Obs.Span.tid then begin
        Alcotest.(check bool) (s.name ^ " nested in compile") true
          (s.depth > compile.Obs.Span.depth
           && s.start_us >= compile.Obs.Span.start_us -. 1e-6
           && ends s <= ends compile +. 1e-6)
      end)
    spans;
  (* Pass spans carry before/after graph statistics. *)
  let sweep = List.hd (named "flow.sweep") in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("sweep arg " ^ k) true
        (List.mem_assoc k sweep.Obs.Span.args))
    [ "iter"; "in_ands"; "out_ands"; "delta_ands"; "in_level"; "out_level" ];
  (* Metrics populated alongside the spans. *)
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "compile counter" true
    (match List.assoc_opt "synth.flow.compiles" snap with
     | Some (Obs.Metrics.Counter_v n) -> n >= 1
     | _ -> false)

(* Collapse memo and fixpoint-skip counters are work counts, not timings:
   two runs of the same compiles must report equal values, and every
   skipped iteration is one collapse span fewer. *)
let test_flow_counters_deterministic () =
  let designs =
    Pctrl.Controller.auto_design Pctrl.Controller.Uncached
    :: List.init 12 (fun seed -> Workload.Rand_design.generate ~seed)
  in
  let run () =
    with_obs @@ fun () ->
    List.iter (fun d -> ignore (Synth.Flow.compile Cells.Library.vt90 d)) designs;
    let counter name =
      Obs.Metrics.counter_value (Obs.Metrics.counter name)
    in
    let collapses =
      List.length
        (List.filter
           (fun s -> s.Obs.Span.name = "flow.collapse")
           (Obs.Span.completed ()))
    in
    ( counter "synth.collapse.espresso_calls",
      counter "synth.collapse.memo_hits",
      counter "synth.flow.collapse.skipped",
      collapses )
  in
  let (espresso, hits, skipped, collapses) as first = run () in
  Alcotest.(check bool) "second run, same counts" true (first = run ());
  Alcotest.(check bool) "espresso ran" true (espresso > 0);
  Alcotest.(check bool) "repeated bit-slices hit the memo" true (hits > 0);
  Alcotest.(check bool) "some compiles stop after one iteration" true
    (skipped > 0);
  Alcotest.(check int) "one collapse span per iteration run"
    ((2 * List.length designs) - skipped) collapses

(* The BDD layer's counters are work counts too: the same checks, run
   twice, take the same image steps and hit the same budgets. The corpus
   includes designs that exceed the variable and node budgets. *)
let test_symbolic_counters_deterministic () =
  let pairs =
    List.map
      (fun seed ->
        let low =
          (Synth.Lower.run (Workload.Rand_design.generate ~seed)).Synth.Lower.aig
        in
        (low, Synth.Sweep.run low))
      [ 3; 8; 9; 30; 38; 49 ]
  in
  let onehot =
    Synth.Lower.run
      (Experiments.Onehot_design.generic ~n:64
         ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset))
  in
  let run () =
    with_obs @@ fun () ->
    List.iter
      (fun (a, b) ->
        ignore (Synth.Equiv.run (Synth.Equiv.Bdd { max_vars = 40 }) a b))
      pairs;
    ignore
      (Synth.Stateprop.run ~annots:(Synth.Annots.extract onehot)
         onehot.Synth.Lower.aig);
    let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
    (counter "synth.symbolic.image_steps", counter "synth.symbolic.overflow")
  in
  let (steps, overflows) as first = run () in
  Alcotest.(check (pair int int)) "second run, same counts" first (run ());
  Alcotest.(check bool) "image steps counted" true (steps > 0);
  Alcotest.(check bool) "overflows counted" true (overflows > 0)

(* ---------------------------------------------------- fig5 determinism *)

(* Each capture compiles on a fresh engine, so every run goes through
   Synth.Flow whatever ran before it. *)
let capture_fig5 () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let rows =
    Experiments.Fig5.run ~seeds:[ 0 ] ~grid:[ (8, 4); (16, 4); (32, 4) ]
      (Engine.create Experiments.Exp_common.lib)
  in
  Experiments.Fig5.print fmt rows;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let json_mem k = function
  | Report.Json.Obj fields -> List.mem_assoc k fields
  | _ -> false

let test_fig5_determinism () =
  let plain = capture_fig5 () in
  (* Same sweep with observability on: same bytes, plus a trace. *)
  let observed, trace_path =
    with_obs @@ fun () ->
    let out = capture_fig5 () in
    let path = Filename.temp_file "obs_fig5" ".json" in
    Obs.Trace.write path;
    (out, path)
  in
  Alcotest.(check string) "stdout byte-identical with observability on" plain
    observed;
  let text = In_channel.with_open_text trace_path In_channel.input_all in
  Sys.remove trace_path;
  let doc =
    match Report.Json.of_string text with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  in
  let events =
    match json_field "traceEvents" doc with
    | Some (Report.Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  let names =
    List.filter_map
      (fun e ->
        match json_field "name" e with
        | Some (Report.Json.String n) -> Some n
        | _ -> None)
    events
  in
  Alcotest.(check bool) "flow.compile span in trace" true
    (List.mem "flow.compile" names);
  Alcotest.(check bool) "flow pass spans in trace" true
    (List.mem "flow.sweep" names && List.mem "flow.collapse" names);
  List.iter
    (fun e ->
      match json_field "dur" e with
      | Some (Report.Json.Float d) ->
        Alcotest.(check bool) "dur >= 0" true (d >= 0.)
      | Some (Report.Json.Int d) ->
        Alcotest.(check bool) "dur >= 0" true (d >= 0)
      | _ -> Alcotest.fail "event without dur")
    events;
  (* The folded-in metrics snapshot carries engine activity. *)
  let metrics =
    match json_field "metrics" doc with
    | Some m -> m
    | None -> Alcotest.fail "metrics missing from trace"
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in trace metrics") true (json_mem k metrics))
    [
      "engine.pool.jobs"; "synth.flow.compiles"; "synth.flow.sweep.ands_removed";
      "synth.flow.collapse.ands_removed"; "synth.collapse.espresso_calls";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "forms" `Quick test_json_forms;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "args" `Quick test_span_args;
          Alcotest.test_case "recorded on raise" `Quick test_span_on_raise;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Prop.test ~iters:30 "totals = brute-force oracle" arb_forest
            prop_totals_oracle;
        ] );
      ("metrics", [ Alcotest.test_case "kinds" `Quick test_metric_kinds ]);
      ( "symbolic",
        [
          Alcotest.test_case "counters deterministic" `Quick
            test_symbolic_counters_deterministic;
        ] );
      ( "flow",
        [
          Alcotest.test_case "pass spans" `Quick test_flow_spans;
          Alcotest.test_case "collapse counters deterministic" `Quick
            test_flow_counters_deterministic;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig5 stdout identical under tracing" `Quick
            test_fig5_determinism;
        ] );
    ]
