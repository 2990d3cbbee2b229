(* The synthesis job engine: fingerprint identity, summary/disk-cache
   round-trips, parallel-map semantics, and end-to-end determinism of a
   figure sweep across worker counts and cache temperatures. *)

let lib = Cells.Library.vt90

let fsm_design seed =
  let fsm =
    Workload.Rand_fsm.generate ~seed ~num_inputs:2 ~num_outputs:4
      ~num_states:5
  in
  Synth.Partial_eval.bind_tables
    (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
    (Core.Fsm_ir.config_bindings fsm)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "engine-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (* The engine's first job makes the directory itself. *)
    d

(* ---------------------------------------------------------- fingerprint *)

let test_fingerprint_stable () =
  (* Rebuilding the identical design from scratch yields the same key. *)
  let key d = Engine.Fingerprint.job ~lib ~options:Synth.Flow.default d in
  Alcotest.(check string)
    "same design, same options, same lib"
    (key (fsm_design 3)) (key (fsm_design 3))

let test_fingerprint_sensitivity () =
  let d = fsm_design 3 in
  let base = Engine.Fingerprint.job ~lib ~options:Synth.Flow.default d in
  let distinct what key =
    if key = base then Alcotest.failf "%s did not change the fingerprint" what
  in
  distinct "different design"
    (Engine.Fingerprint.job ~lib ~options:Synth.Flow.default (fsm_design 4));
  let o = Synth.Flow.default in
  let variants =
    [ ("collapse_cap", { o with Synth.Flow.collapse_cap = 13 });
      ("honor_generator_annots",
       { o with Synth.Flow.honor_generator_annots = true });
      ("annot_width_cap", { o with Synth.Flow.annot_width_cap = 31 });
      ("retime", { o with Synth.Flow.retime = true }) ]
  in
  List.iter
    (fun (what, options) ->
      distinct ("option " ^ what) (Engine.Fingerprint.job ~lib ~options d))
    variants;
  (* A resized cell re-keys the whole library. *)
  let tweaked =
    match lib.Cells.Library.cells with
    | c :: rest ->
      { lib with
        Cells.Library.cells =
          { c with Cells.Cell.area = c.Cells.Cell.area +. 0.25 } :: rest }
    | [] -> assert false
  in
  distinct "library cell area"
    (Engine.Fingerprint.job ~lib:tweaked ~options:Synth.Flow.default d)

(* -------------------------------------------------------------- summary *)

let compile_summary d = Engine.Summary.of_flow (Synth.Flow.compile lib d)

let test_summary_roundtrip () =
  let s = compile_summary (fsm_design 7) in
  match Engine.Summary.of_string (Engine.Summary.to_string s) with
  | Error m -> Alcotest.failf "summary did not parse back: %s" m
  | Ok s' ->
    (* Bit-exact round-trip, floats included: polymorphic equality. *)
    if s <> s' then
      Alcotest.failf "summary round-trip not identical:@.%s@.vs@.%s"
        (Engine.Summary.to_string s) (Engine.Summary.to_string s')

let test_summary_rejects_garbage () =
  let rejects what text =
    match Engine.Summary.of_string text with
    | Ok _ -> Alcotest.failf "parsed %s" what
    | Error _ -> ()
  in
  rejects "garbage" "not a summary";
  rejects "the old line format" "ctrlgen-summary v1\ncomb_area 0x1p+0\n";
  rejects "a JSON list" "[1, 2]";
  (* A well-formed record with one field spoiled. *)
  let spoil name v =
    match
      Report.Json.of_string
        (Engine.Summary.to_string (compile_summary (fsm_design 7)))
    with
    | Ok (Report.Json.Obj fields) ->
      Report.Json.to_string
        (Report.Json.Obj
           (List.map (fun (k, x) -> (k, if k = name then v else x)) fields))
    | _ -> Alcotest.fail "summary is not a JSON object"
  in
  rejects "a bad float" (spoil "comb_area" (Report.Json.String "nope"));
  rejects "a float where a hex string belongs"
    (spoil "seq_area" (Report.Json.Float 1.5));
  rejects "a bad cell" (spoil "cells" (Report.Json.List [ Report.Json.Int 3 ]))

(* Every float, integral or needing all 17 significant digits (such as
   0.1 + 0.2 = 0.30000000000000004), reads back with the same bits. *)
let prop_summary_floats_exact =
  let special = [ 0.0; -0.0; 1.0; 4096.0; 0.1 +. 0.2; 1.0 /. 3.0 ] in
  let gen rng =
    let pick () =
      match Workload.Rng.int rng 3 with
      | 0 -> Workload.Rng.pick rng special
      | 1 -> float_of_int (Workload.Rng.int rng 1_000_000)
      | _ ->
        float_of_int (Workload.Rng.int rng 1_000_000_000)
        /. float_of_int (1 + Workload.Rng.int rng 999)
    in
    let a = pick () in
    let b = pick () in
    (a, b, pick ())
  in
  let show (a, b, c) = Printf.sprintf "(%h, %h, %h)" a b c in
  Prop.test ~iters:300 "float round-trip bit-exact"
    ~examples:[ (0.0, 1.0, 0.1 +. 0.2); (-0.0, 1e300, 5e-324) ]
    (Prop.make ~show gen)
    (fun (comb_area, seq_area, critical_delay) ->
      let s =
        {
          Engine.Summary.report =
            { Synth.Map.comb_area; seq_area; critical_delay;
              cell_counts = [ ("INV", 2); ("a \"b\"", 0) ];
              num_flops = 3; config_bits = 0 };
          aig_ands = 12;
          aig_latches = 3;
        }
      in
      let bits x = Int64.bits_of_float x in
      match Engine.Summary.of_string (Engine.Summary.to_string s) with
      | Ok s' ->
        let r = s.report and r' = s'.report in
        bits r.comb_area = bits r'.comb_area
        && bits r.seq_area = bits r'.seq_area
        && bits r.critical_delay = bits r'.critical_delay
        && s = s'
      | Error _ -> false)

(* ----------------------------------------------------------------- pool *)

let test_pool_isolation_and_order () =
  let f x = if x mod 4 = 0 then failwith (Printf.sprintf "boom %d" x) else x * x in
  let xs = List.init 9 (fun i -> i + 1) in
  let results = Engine.Pool.map ~jobs:3 f xs in
  List.iteri
    (fun i r ->
      let x = i + 1 in
      match r with
      | Ok y -> Alcotest.(check int) (Printf.sprintf "slot %d" x) (x * x) y
      | Error (Engine.Pool.Exn { exn; _ }) ->
        if x mod 4 <> 0 then Alcotest.failf "unexpected error at %d: %s" x exn)
    results;
  Alcotest.(check int) "result count" 9 (List.length results);
  (* The worker count never shows in the results: inline, fewer workers
     than items, and more workers than items agree. *)
  let render = List.map (Result.map_error Engine.Pool.error_message) in
  List.iter
    (fun jobs ->
      if render (Engine.Pool.map ~jobs f xs) <> render results then
        Alcotest.failf "-j %d results differ from -j 3" jobs)
    [ 1; 16 ];
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "empty list at -j %d" jobs)
        0
        (List.length (Engine.Pool.map ~jobs f [])))
    [ 1; 3; 16 ]

(* -------------------------------------------------------------- journal *)

let test_journal_roundtrip () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let j = Engine.Journal.open_append path in
  Engine.Journal.append j ~key:"a" ~value:"masked";
  Engine.Journal.append j ~key:"b\"x\\y" ~value:"mismatch 3 out\twith tab";
  Engine.Journal.append j ~key:"d" ~value:"bell\007 nul\000";
  (* Lines a journal reader must skip: valid JSON that is not a record
     (the payload is not a string), an error record of older journals,
     and a blank line. *)
  Out_channel.with_open_gen
    [ Open_append; Open_text ]
    0o644 path
    (fun oc ->
      Out_channel.output_string oc
        "{\"k\":\"x\",\"v\":1}\n{\"k\":\"c\",\"e\":\"boom\"}\n\n");
  (match Engine.Journal.load path with
   | [ a; b; d ] ->
     Alcotest.(check (pair string string)) "record a" ("a", "masked")
       (a.Engine.Journal.key, a.Engine.Journal.value);
     Alcotest.(check (pair string string)) "escaped key and value"
       ("b\"x\\y", "mismatch 3 out\twith tab")
       (b.Engine.Journal.key, b.Engine.Journal.value);
     Alcotest.(check string) "control bytes" "bell\007 nul\000"
       d.Engine.Journal.value
   | l -> Alcotest.failf "expected 3 entries, got %d" (List.length l));
  (* A torn tail record (kill mid-write) is skipped; prior entries load. *)
  Out_channel.with_open_gen
    [ Open_append; Open_text ]
    0o644 path
    (fun oc -> Out_channel.output_string oc "{\"k\":\"d\",\"v\":\"tru");
  Alcotest.(check int) "torn tail skipped" 3
    (List.length (Engine.Journal.load path));
  Sys.remove path

(* ---------------------------------------------------------------- batch *)

let test_batch_error_rows () =
  (* A deterministic failure settles as an Error row and is not handed to
     [settle] as a result; the batch finishes. *)
  let f x = if x = 3 then failwith "boom" else x * 10 in
  let failed = ref [] in
  (match
     Engine.Batch.map ~jobs:2 ~key:string_of_int
       ~settled:(fun _ -> None)
       ~settle:(fun k r -> if Result.is_error r then failed := k :: !failed)
       f [ 1; 2; 3; 4 ]
   with
   | [ Ok 10; Ok 20; Error _; Ok 40 ] -> ()
   | _ -> Alcotest.fail "unexpected batch results");
  Alcotest.(check (list string)) "the failure settles as an error" [ "3" ]
    !failed

let test_batch_map_coalesces () =
  (* Duplicate keys run once; a settled key never runs; every position gets
     its answer, and each fresh result is settled once, in item order. *)
  let calls = Atomic.make 0 in
  let f x =
    Atomic.incr calls;
    x * 10
  in
  let settled_keys = ref [] in
  let results =
    Engine.Batch.map ~jobs:2 ~key:string_of_int
      ~settled:(fun k -> if k = "7" then Some 700 else None)
      ~settle:(fun k r ->
        settled_keys := k :: !settled_keys;
        if Result.is_error r then Alcotest.failf "item %s failed" k)
      f [ 3; 1; 3; 7; 1; 3; 7; 5 ]
  in
  Alcotest.(check int) "each distinct unsettled key ran once" 3
    (Atomic.get calls);
  Alcotest.(check (list string)) "settled in item order" [ "3"; "1"; "5" ]
    (List.rev !settled_keys);
  match results with
  | [ Ok 30; Ok 10; Ok 30; Ok 700; Ok 10; Ok 30; Ok 700; Ok 50 ] -> ()
  | _ -> Alcotest.fail "unexpected map results"

(* The engine's store for keyed clients: records appended through one
   engine serve it at once and a later engine over the same directory;
   the first record per key that decodes wins; without a store nothing
   is kept and the key is never computed. *)
let test_batch_journal_resume () =
  let decode s =
    match int_of_string_opt s with Some i -> Ok i | None -> Error "not an int"
  in
  let dir = fresh_dir () in
  let key k = lazy (string_of_int k) in
  let e = Engine.create ~cache_dir:dir lib in
  Alcotest.(check (option int)) "a cold store has nothing" None
    (Engine.lookup e ~decode (key 1));
  List.iter (fun k -> Engine.append e (key k) (string_of_int (k * k))) [ 1; 2 ];
  Alcotest.(check (option int)) "a stored record serves the same engine"
    (Some 4) (Engine.lookup e ~decode (key 2));
  let warm = Engine.create ~cache_dir:dir lib in
  Alcotest.(check (list (option int))) "and a later engine"
    [ Some 1; Some 4; None ]
    (List.map (fun k -> Engine.lookup warm ~decode (key k)) [ 1; 2; 3 ]);
  Alcotest.(check int) "keyed records are not jobs" 0
    (Engine.stats warm).Engine.submitted;
  (* A payload that does not decode does not shadow a later good record
     for its key. *)
  Engine.append warm (key 7) "garbage";
  Engine.append warm (key 7) "49";
  Alcotest.(check (option int)) "bad-then-good pair reads the good record"
    (Some 49)
    (Engine.lookup (Engine.create ~cache_dir:dir lib) ~decode (key 7));
  (* No store: appends are dropped and keys are never forced. *)
  let unforced = lazy (Alcotest.fail "key forced without a store") in
  List.iter
    (fun e ->
      Engine.append e unforced "1";
      Alcotest.(check (option int)) "no store, no record" None
        (Engine.lookup e ~decode unforced))
    [ Engine.create lib; Engine.create ~cache_dir:dir ~no_cache:true lib ]

(* --------------------------------------------------------------- engine *)

(* The CLI resolves [-j 0]; the engine takes only a worker count. *)
let test_engine_rejects_zero_jobs () =
  match Engine.create ~jobs:0 lib with
  | _ -> Alcotest.fail "~jobs:0 accepted"
  | exception Invalid_argument _ -> ()

let test_engine_coalesces_and_isolates () =
  let e = Engine.create ~jobs:1 lib in
  let d = fsm_design 13 in
  let outcomes = Engine.run e [ Engine.job d; Engine.job d; Engine.job d ] in
  (match outcomes with
   | [ Ok a; Ok b; Ok c ] when a = b && b = c -> ()
   | _ -> Alcotest.fail "identical jobs should share one result");
  let s = Engine.stats e in
  Alcotest.(check int) "executed once" 1 s.Engine.executed;
  Alcotest.(check int) "coalesced twice" 2 s.Engine.mem_hits;
  (* The same job in a later batch comes from the memory cache. *)
  ignore (Engine.run e [ Engine.job d ]);
  let s = Engine.stats e in
  Alcotest.(check int) "still executed once" 1 s.Engine.executed;
  Alcotest.(check int) "memory hit" 3 s.Engine.mem_hits;
  (* A malformed design (nets referencing inputs that are gone) crashes its
     own job during lowering and nothing else. *)
  let bad_design = { d with Rtl.Design.inputs = [] } in
  let outcomes = Engine.run e [ Engine.job bad_design; Engine.job d ] in
  (match outcomes with
   | [ Error (Engine.Pool.Exn _); Ok _ ] -> ()
   | [ Error e1; _ ] ->
     Alcotest.failf "expected Exn error, got %s"
       (Engine.Pool.error_message e1)
   | _ -> Alcotest.fail "crashing job must not poison its batch")

(* fig5's quick grid, one seed: the determinism workhorse. *)
let fig5_rows engine =
  Experiments.Fig5.run ~seeds:[ 0 ] ~grid:Experiments.Fig5.quick_grid engine

let check_rows_equal what (a : Experiments.Fig5.row list) b =
  (* Bit-identical areas: polymorphic equality on the float-carrying rows. *)
  if a <> b then Alcotest.failf "%s: fig5 rows differ" what

let test_determinism_parallel () =
  let seq = fig5_rows (Engine.create ~jobs:1 lib) in
  let e = Engine.create ~jobs:4 lib in
  let par = fig5_rows e in
  check_rows_equal "sequential vs -j 4" seq par;
  let s = Engine.stats e in
  Alcotest.(check int) "parallel run missed everything"
    s.Engine.submitted s.Engine.executed;
  (* Same engine again: everything is a cache hit and nothing recompiles. *)
  let warm = fig5_rows e in
  check_rows_equal "cold vs warm (memory)" seq warm;
  let s' = Engine.stats e in
  Alcotest.(check int) "warm run executed nothing"
    s.Engine.executed s'.Engine.executed;
  if s'.Engine.mem_hits <= s.Engine.mem_hits then
    Alcotest.fail "warm run reported no cache hits"

(* No cache outlives the engine that holds it: a second fresh engine
   compiles the whole sweep again. *)
let test_fresh_engines_share_nothing () =
  List.iter
    (fun e ->
      ignore (fig5_rows e);
      let s = Engine.stats e in
      Alcotest.(check (pair int int)) "every job executed, no hit"
        (s.Engine.submitted, 0) (s.Engine.executed, s.Engine.mem_hits))
    [ Engine.create lib; Engine.create lib ]

let bad_job seed =
  Engine.job { (fsm_design seed) with Rtl.Design.inputs = [] }

let test_sweep_degrades_gracefully () =
  (* A sweep whose every job crashes (malformed designs: nets reference
     inputs that are gone) still yields a full row list of error cells and
     records each failure, instead of aborting on the first one. *)
  let e = Engine.create ~jobs:1 lib in
  let res =
    List.concat_map snd
      (Experiments.Exp_common.sweep e
         (fun j -> [ j ])
         [ bad_job 19; bad_job 23 ])
  in
  (match res with
   | [ Error _; Error _ ] -> ()
   | _ -> Alcotest.fail "expected every job to fail");
  Alcotest.(check (list string)) "failures recorded in slot order"
    (List.filter_map (function Error m -> Some m | Ok _ -> None) res)
    (Engine.failures e);
  Alcotest.(check string) "failed cell renders FAIL" "FAIL"
    (Experiments.Exp_common.fmt_area_result (Error "x"));
  Alcotest.(check string) "failed ratio renders dash" "-"
    (Experiments.Exp_common.fmt_ratio_result (Error "x") (Ok 1.0));
  (* A reference that folds to zero area prints "const", never "-nan",
     and has no ratio for a summary to take in. *)
  Alcotest.(check string) "folded ratio renders const" "const"
    (Experiments.Exp_common.fmt_ratio_result (Ok 0.0) (Ok 0.0));
  Alcotest.(check (option (float 0.))) "folded ratio left out" None
    (Experiments.Exp_common.ratio_opt (Ok 3.0) (Ok 0.0))

(* [Exp_common.sweep] over points of 0–3 jobs each, good designs mixed
   with failing ones: every point gets back its own cells in job order,
   failures stay in their slots and [Engine.failures] lists them in slot
   order, and the engine counts every job once. *)
let prop_sweep_cells_per_point =
  let good =
    Array.init 3 (fun seed ->
        Core.Truth_table.to_sop_rtl
          (Workload.Rand_table.generate ~seed ~depth:4 ~width:2))
  in
  let area =
    Array.map (fun d -> Engine.Summary.area (compile_summary d)) good
  in
  let job = function
    | `Good i -> Engine.job good.(i)
    | `Bad i -> bad_job i
  in
  let gen rng =
    List.init (Workload.Rng.int rng 5) (fun p ->
        ( p,
          List.init (Workload.Rng.int rng 4) (fun _ ->
              let i = Workload.Rng.int rng 3 in
              if Workload.Rng.int rng 3 = 0 then `Bad i else `Good i) ))
  in
  let show points =
    String.concat "; "
      (List.map
         (fun (p, slots) ->
           Printf.sprintf "%d:[%s]" p
             (String.concat ","
                (List.map
                   (function
                     | `Good i -> Printf.sprintf "good %d" i
                     | `Bad i -> Printf.sprintf "bad %d" i)
                   slots)))
         points)
  in
  Prop.test ~iters:40 "sweep: cells per point, in order"
    ~examples:[ [ (0, []); (1, [ `Bad 0; `Good 1 ]); (2, [ `Good 1 ]) ] ]
    (Prop.make ~show gen)
    (fun points ->
      let e = Engine.create ~jobs:2 lib in
      let swept =
        Experiments.Exp_common.sweep e (fun (_, slots) -> List.map job slots)
          points
      in
      let cell_ok slot cell =
        match (slot, cell) with
        | `Good i, Ok a -> a = area.(i)
        | `Bad _, Error m ->
          String.starts_with
            ~prefix:
              (Printf.sprintf "synthesis job %s failed: " (job slot).jname)
            m
        | _ -> false
      in
      let cells = List.concat_map snd swept in
      List.map fst swept = points
      && List.for_all2
           (fun (_, slots) (_, cells) ->
             List.length slots = List.length cells
             && List.for_all2 cell_ok slots cells)
           points swept
      && Engine.failures e
         = List.filter_map (function Error m -> Some m | Ok _ -> None) cells
      && (Engine.stats e).submitted = List.length (List.concat_map snd points))

(* Failures belong to the engine that ran them: two failing jobs list two
   messages there, and none on another engine. *)
let test_failures_stay_on_their_engine () =
  let failing = Engine.create lib and other = Engine.create lib in
  ignore (Engine.run other [ Engine.job (fsm_design 5) ]);
  ignore (Engine.run failing [ bad_job 19; Engine.job (fsm_design 5) ]);
  ignore (Engine.run failing [ bad_job 23 ]);
  let prefix (j : Engine.job) =
    Printf.sprintf "synthesis job %s failed: " j.jname
  in
  let failures = Engine.failures failing in
  Alcotest.(check int) "two failures" 2 (List.length failures);
  List.iter2
    (fun j m ->
      Alcotest.(check bool) ("in slot order: " ^ m) true
        (String.starts_with ~prefix:(prefix j) m))
    [ bad_job 19; bad_job 23 ] failures;
  Alcotest.(check (list string)) "the other engine saw none" []
    (Engine.failures other)

let test_determinism_disk_cache () =
  let dir = fresh_dir () in
  let cold = fig5_rows (Engine.create ~jobs:1 ~cache_dir:dir lib) in
  (* Fresh process-equivalent: new engine, same directory. *)
  let e = Engine.create ~jobs:1 ~cache_dir:dir lib in
  let warm = fig5_rows e in
  check_rows_equal "cold vs warm (disk)" cold warm;
  let s = Engine.stats e in
  Alcotest.(check int) "warm disk run executed nothing" 0 s.Engine.executed;
  if s.Engine.disk_hits = 0 then Alcotest.fail "no disk hits on warm run"

(* ----------------------------------------------------------- disk cache *)

let results_path dir = Filename.concat dir "results.jsonl"

let test_cache_disk_roundtrip () =
  let dir = fresh_dir () in
  let d = fsm_design 11 in
  let cold = Engine.create ~cache_dir:dir lib in
  let s = Engine.run cold [ Engine.job d ] in
  (* A second engine over the same directory: a disk hit, then a memory
     hit, and never a compile. *)
  let warm = Engine.create ~cache_dir:dir lib in
  if Engine.run warm [ Engine.job d ] <> s then
    Alcotest.fail "disk record differs from the compiled summary";
  let st = Engine.stats warm in
  Alcotest.(check (pair int int)) "disk hit, nothing executed" (1, 0)
    (st.Engine.disk_hits, st.Engine.executed);
  ignore (Engine.run warm [ Engine.job d ]);
  let st = Engine.stats warm in
  Alcotest.(check (pair int int)) "then a memory hit" (1, 1)
    (st.Engine.disk_hits, st.Engine.mem_hits);
  Alcotest.(check (array string)) "the store is one journal"
    [| "results.jsonl" |] (Sys.readdir dir)

let test_cache_torn_tail () =
  let dir = fresh_dir () in
  let d = fsm_design 11 and d' = fsm_design 12 in
  ignore (Engine.run (Engine.create ~cache_dir:dir lib) [ Engine.job d ]);
  (* A kill mid-append leaves a torn final line: here, the first half of
     the one record. It is skipped, and the next engine's record starts a
     line of its own. *)
  let record =
    In_channel.with_open_text (results_path dir) In_channel.input_all
  in
  Out_channel.with_open_gen [ Open_append; Open_text ] 0o644
    (results_path dir)
    (fun oc ->
      Out_channel.output_string oc
        (String.sub record 0 (String.length record / 2)));
  let run_both () =
    let e = Engine.create ~cache_dir:dir lib in
    List.iter
      (fun r -> if Result.is_error r then Alcotest.fail "job failed")
      (Engine.run e [ Engine.job d; Engine.job d' ]);
    let st = Engine.stats e in
    (st.Engine.disk_hits, st.Engine.executed)
  in
  Alcotest.(check (pair int int)) "disk hit past the torn tail" (1, 1)
    (run_both ());
  Alcotest.(check (pair int int)) "the record after it reads back" (2, 0)
    (run_both ())

(* An engine that runs no job leaves a fresh cache dir absent, even when
   it is handed an empty batch. *)
let test_cache_dir_idle_engine () =
  let dir = Filename.concat (fresh_dir ()) "nested" in
  let e = Engine.create ~cache_dir:dir lib in
  Alcotest.(check int) "an empty batch" 0 (List.length (Engine.run e []));
  Alcotest.(check bool) "no directory left behind" false
    (Sys.file_exists (Filename.dirname dir))

let test_cache_dir_not_directory () =
  let file = Filename.temp_file "engine-test" ".file" in
  (match Engine.create ~cache_dir:file lib with
   | _ -> Alcotest.fail "a file accepted as cache_dir"
   | exception Invalid_argument _ -> ());
  Sys.remove file

(* Replace the payload of the journal's record [i] with one that does
   not decode. *)
let spoil_record dir i =
  let lines =
    In_channel.with_open_text (results_path dir) In_channel.input_lines
  in
  let spoil line =
    match Report.Json.of_string line with
    | Ok (Report.Json.Obj fields) ->
      Report.Json.to_string
        (Report.Json.Obj
           (List.map
              (fun (k, v) ->
                (k, if k = "v" then Report.Json.String "garbage" else v))
              fields))
    | _ -> Alcotest.fail "results journal line is not a JSON object"
  in
  Out_channel.with_open_text (results_path dir) (fun oc ->
      List.iteri
        (fun j l ->
          Out_channel.output_string oc (if j = i then spoil l else l);
          Out_channel.output_char oc '\n')
        lines)

(* Spoil one record's payload in a warm directory: the next engine
   recompiles exactly that job and appends a good record after the bad
   one, which then serves every later engine. *)
let test_cache_corrupt_record () =
  let dir = fresh_dir () in
  let engine () = Engine.create ~jobs:1 ~cache_dir:dir lib in
  let cold = fig5_rows (engine ()) in
  spoil_record dir 2;
  let executed_by_fresh_engine () =
    let e = engine () in
    check_rows_equal "cold vs warm after a spoiled record" cold (fig5_rows e);
    (Engine.stats e).Engine.executed
  in
  Alcotest.(check int) "the spoiled job recompiles" 1
    (executed_by_fresh_engine ());
  Alcotest.(check int) "its new record serves the next engine" 0
    (executed_by_fresh_engine ())

(* ------------------------------------------------------------- netlists *)

let journal_keys dir =
  List.map
    (fun (e : Engine.Journal.entry) -> e.key)
    (Engine.Journal.load (results_path dir))

(* The same graph node for node, the same report and the same instance
   table in the same iteration order: what power and netlist emission
   read. *)
let check_same_result name (a : Synth.Flow.result) (b : Synth.Flow.result) =
  Alcotest.(check bool) (name ^ ": aig") true
    (Aig.equal a.Synth.Flow.aig b.Synth.Flow.aig);
  Alcotest.(check bool) (name ^ ": report") true
    (a.Synth.Flow.report = b.Synth.Flow.report);
  Alcotest.(check bool) (name ^ ": instances") true
    (List.of_seq (Hashtbl.to_seq a.Synth.Flow.instances)
     = List.of_seq (Hashtbl.to_seq b.Synth.Flow.instances))

(* A fresh engine over [dir] serves [jobs]' netlists, each equal to a
   direct compile's; returns how many jobs it executed. *)
let warm_netlists dir jobs =
  let e = Engine.create ~cache_dir:dir lib in
  List.iter2
    (fun (j : Engine.job) -> function
      | Ok r ->
        check_same_result j.jname
          (Synth.Flow.compile ~options:j.options lib j.design) r
      | Error _ -> Alcotest.fail "netlist job failed")
    jobs (Engine.netlists e jobs);
  (Engine.stats e).Engine.executed

let test_netlists_journal_roundtrip () =
  let dir = fresh_dir () in
  let jobs =
    List.map Engine.job
      [ fsm_design 11; Workload.Rand_design.generate ~seed:5;
        Workload.Rand_design.generate ~seed:9 ]
  in
  ignore (Engine.netlists (Engine.create ~cache_dir:dir lib) jobs);
  Alcotest.(check int) "one record per job" 3
    (List.length (journal_keys dir));
  Alcotest.(check int) "a second engine executes nothing" 0
    (warm_netlists dir jobs)

let test_netlists_spoiled_record () =
  let dir = fresh_dir () in
  let jobs = [ Engine.job (fsm_design 11) ] in
  ignore (Engine.netlists (Engine.create ~cache_dir:dir lib) jobs);
  spoil_record dir 0;
  Alcotest.(check int) "the spoiled netlist recompiles" 1
    (warm_netlists dir jobs);
  Alcotest.(check int) "its new record serves a third engine" 0
    (warm_netlists dir jobs)

(* Area keys are unchanged, so caches written before netlist jobs existed
   stay valid; a netlist job of the same design keys apart. *)
let test_netlist_key () =
  let dir = fresh_dir () in
  let e = Engine.create ~cache_dir:dir lib in
  ignore (Engine.run e [ Engine.job (fsm_design 3) ]);
  ignore (Engine.netlists e [ Engine.job (fsm_design 3) ]);
  match journal_keys dir with
  | [ area; netlist ] ->
    Alcotest.(check string) "area key" "31ecc830fbfc01b2c2ebf068207ee79a" area;
    if netlist = area then Alcotest.fail "netlist key equals the area key"
  | keys -> Alcotest.failf "expected 2 records, got %d" (List.length keys)

(* Fault_cmp's netlists are Fig. 9's Full and Auto cached compiles: an
   engine that ran Fig. 9 serves both from memory, and the table equals a
   fresh engine's. *)
let test_fault_cmp_reuses_fig9 () =
  let table e =
    Format.asprintf "%a" Experiments.Fault_cmp.print
      (Experiments.Fault_cmp.run ~sites:4 e)
  in
  let e = Engine.create ~jobs:2 lib in
  ignore (Experiments.Fig9.rows e);
  let before = (Engine.stats e).Engine.mem_hits in
  let warm = table e in
  Alcotest.(check int) "two memory hits" 2
    ((Engine.stats e).Engine.mem_hits - before);
  Alcotest.(check string) "same fault table" (table (Engine.create ~jobs:2 lib))
    warm

(* ------------------------------------------------------------------ cli *)

(* Evaluate the shared flag term on [args], discarding cmdliner's error
   and help output. *)
let eval_cli args =
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "cli-test") Cli.term in
  Cmdliner.Cmd.eval_value ~help:quiet ~err:quiet
    ~argv:(Array.of_list ("cli-test" :: args))
    cmd

let test_cli_rejects_bad_values () =
  List.iter
    (fun args ->
      match eval_cli args with
      | Error (`Parse | `Term) -> ()
      | _ -> Alcotest.failf "accepted %s" (String.concat " " args))
    [ [ "-j"; "-1" ]; [ "-j=-1" ]; [ "-j"; "two" ];
      (* A trace is written at exit, so a missing directory is refused
         at parse time. *)
      [ "--trace"; Filename.concat (fresh_dir ()) "t.json" ] ];
  (* The range converter behind -j and ctrlgen's counts: both bounds are
     inclusive, and anything outside them or not an integer is refused. *)
  let parse = Cmdliner.Arg.conv_parser (Cli.range ~max:16 1) in
  List.iter
    (fun s ->
      match parse s with
      | Error (`Msg _) -> ()
      | Ok n -> Alcotest.failf "range 1..16 accepted %S as %d" s n)
    [ "0"; "17"; "-3"; ""; "1.5"; "x" ];
  List.iter
    (fun n ->
      Alcotest.(check (result int reject))
        (Printf.sprintf "range 1..16 takes %d" n)
        (Ok n) (parse (string_of_int n)))
    [ 1; 16 ];
  Alcotest.(check bool) "no upper bound by default" true
    (Cmdliner.Arg.conv_parser (Cli.range 0) (string_of_int max_int)
     = Ok max_int)

let test_cli_values () =
  (match eval_cli [ "-j"; "0" ] with
   | Ok (`Ok c) ->
     Alcotest.(check int) "-j 0 means one job per core"
       (Domain.recommended_domain_count ())
       (Engine.jobs (Cli.engine c lib))
   | _ -> Alcotest.fail "-j 0 rejected");
  (* Observability is on exactly when a sink was requested. *)
  Obs.set_enabled false;
  (match eval_cli [ "--no-cache" ] with
   | Ok (`Ok c) ->
     Alcotest.(check int) "default -j" 1 (Engine.jobs (Cli.engine c lib));
     Alcotest.(check bool) "no --metrics" false (Obs.enabled ())
   | _ -> Alcotest.fail "valid flags rejected");
  (match eval_cli [ "--metrics" ] with
   | Ok (`Ok _) -> Alcotest.(check bool) "--metrics" true (Obs.enabled ())
   | _ -> Alcotest.fail "--metrics rejected");
  Obs.set_enabled false;
  (* The timeout and retry flags are gone. *)
  List.iter
    (fun args ->
      match eval_cli args with
      | Error (`Parse | `Term) -> ()
      | _ -> Alcotest.failf "accepted removed flag %s" (String.concat " " args))
    [ [ "--timeout-s"; "2.5" ]; [ "--retries"; "3" ] ]

(* Parsing the flags builds no engine, and building one touches no disk:
   a fresh --cache-dir is created by the engine's first job. *)
let test_cli_term_creates_nothing () =
  let dir = fresh_dir () in
  match eval_cli [ "--cache-dir"; dir ] with
  | Ok (`Ok c) ->
    Alcotest.(check bool) "parsing created nothing" false
      (Sys.file_exists dir);
    let e = Cli.engine c lib in
    Alcotest.(check bool) "building the engine created nothing" false
      (Sys.file_exists dir);
    ignore (Engine.run e [ Engine.job (fsm_design 11) ]);
    Alcotest.(check bool) "the first job created the directory" true
      (Sys.is_directory dir)
  | _ -> Alcotest.fail "--cache-dir rejected"

(* The seeded negative control used by `ctrlgen equiv --mutate` and
   `bench equivbench`: the site is a pure function of the seed, and
   exactly one bit changes. *)
let test_mutate_bindings () =
  let bindings = Pctrl.Controller.bindings Pctrl.Controller.Cached in
  let mutated, site = Workload.Rng.mutate_bindings ~seed:8 bindings in
  Alcotest.(check string) "site" "seq_useq_dt_optable entry 5 bit 1" site;
  let flipped =
    List.fold_left2
      (fun n (name, c) (name', c') ->
        Alcotest.(check string) "table order" name name';
        n
        + Array.fold_left ( + ) 0
            (Array.map2
               (fun v v' ->
                 let d = ref 0 in
                 for b = 0 to Bitvec.width v - 1 do
                   if Bitvec.get v b <> Bitvec.get v' b then incr d
                 done;
                 !d)
               c c'))
      0 bindings mutated
  in
  Alcotest.(check int) "one bit flipped" 1 flipped

let () =
  Alcotest.run "engine"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable across rebuilds" `Quick
            test_fingerprint_stable;
          Alcotest.test_case "sensitive to every input" `Quick
            test_fingerprint_sensitivity;
        ] );
      ( "summary",
        [
          Alcotest.test_case "text round-trip" `Quick test_summary_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_summary_rejects_garbage;
          prop_summary_floats_exact;
        ] );
      ( "cache",
        [
          Alcotest.test_case "disk round-trip" `Quick test_cache_disk_roundtrip;
          Alcotest.test_case "torn final line skipped" `Quick
            test_cache_torn_tail;
          Alcotest.test_case "non-directory cache_dir raises" `Quick
            test_cache_dir_not_directory;
          Alcotest.test_case "idle engine creates no cache dir" `Quick
            test_cache_dir_idle_engine;
          Alcotest.test_case "corrupt record recompiled once" `Quick
            test_cache_corrupt_record;
        ] );
      ( "netlists",
        [
          Alcotest.test_case "journal round-trip" `Quick
            test_netlists_journal_roundtrip;
          Alcotest.test_case "spoiled record recompiled once" `Quick
            test_netlists_spoiled_record;
          Alcotest.test_case "area key unchanged, netlist key apart" `Quick
            test_netlist_key;
          Alcotest.test_case "fault reuses Fig. 9's netlists" `Quick
            test_fault_cmp_reuses_fig9;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception isolation, order" `Quick
            test_pool_isolation_and_order;
        ] );
      ( "journal",
        [ Alcotest.test_case "round-trip, torn tail" `Quick
            test_journal_roundtrip ] );
      ( "batch",
        [
          Alcotest.test_case "error rows" `Quick test_batch_error_rows;
          Alcotest.test_case "map coalesces duplicate keys" `Quick
            test_batch_map_coalesces;
          Alcotest.test_case "journal resume" `Quick test_batch_journal_resume;
        ] );
      ( "engine",
        [
          Alcotest.test_case "coalescing and isolation" `Quick
            test_engine_coalesces_and_isolates;
          Alcotest.test_case "sweep degrades gracefully" `Quick
            test_sweep_degrades_gracefully;
          Alcotest.test_case "fig5 cold = warm disk cache" `Quick
            test_determinism_disk_cache;
          Alcotest.test_case "fig5 sequential = -j 4 = warm" `Quick
            test_determinism_parallel;
          Alcotest.test_case "fresh engines share no cache" `Quick
            test_fresh_engines_share_nothing;
          Alcotest.test_case "failures stay on their engine" `Quick
            test_failures_stay_on_their_engine;
          prop_sweep_cells_per_point;
          Alcotest.test_case "rejects ~jobs:0" `Quick
            test_engine_rejects_zero_jobs;
        ] );
      ( "cli",
        [
          Alcotest.test_case "rejects bad flag values" `Quick
            test_cli_rejects_bad_values;
          Alcotest.test_case "resolves flag values" `Quick test_cli_values;
          Alcotest.test_case "parsing creates no cache dir" `Quick
            test_cli_term_creates_nothing;
          Alcotest.test_case "seeded binding mutation" `Quick
            test_mutate_bindings;
        ] );
    ]
