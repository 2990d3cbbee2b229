(* The fault-injection subsystem: site enumeration, golden-vs-faulty
   classification (masked / mismatch / hang), campaign determinism across
   worker counts, and crash-resilient resume from the engine's results
   journal. *)

let lib = Cells.Library.vt90

let small_fsm seed =
  Workload.Rand_fsm.generate ~seed ~num_inputs:2 ~num_outputs:4 ~num_states:5

(* A flexible FSM with its tables bound as simulation config — the richest
   fault surface: config tables plus state/config registers. *)
let flexible_spec ?(cycles = 12) seed =
  let fsm = small_fsm seed in
  let design = Core.Fsm_ir.to_flexible_rtl ~annotate:false fsm in
  let config = Core.Fsm_ir.config_bindings fsm in
  let rng = Workload.Rng.make (seed + 100) in
  let stimulus =
    List.init cycles (fun _ -> [ ("in", Workload.Rng.bitvec rng ~width:2) ])
  in
  Fault.Sim.spec ~config ~stimulus ~watch:[ "out" ] design

(* ------------------------------------------------------- classification *)

let test_control_all_masked () =
  let spec = flexible_spec 1 in
  let report =
    Fault.Campaign.run ~seed:0 ~sites:0 ~model:Fault.Campaign.Control spec
  in
  Alcotest.(check int) "one control site" 1 report.Fault.Campaign.injected;
  Alcotest.(check int) "100% masked" 1 report.Fault.Campaign.masked;
  Alcotest.(check int) "no failures" 0 report.Fault.Campaign.failed

let test_table_flip_visible () =
  let spec = flexible_spec 1 in
  let report =
    Fault.Campaign.run ~seed:0 ~sites:0 ~model:Fault.Campaign.Tables spec
  in
  let config_bits =
    List.fold_left
      (fun acc (_, c) ->
        Array.fold_left (fun a v -> a + Bitvec.width v) acc c)
      0 spec.Fault.Sim.config
  in
  Alcotest.(check int) "population = bound config bits" config_bits
    report.Fault.Campaign.population;
  Alcotest.(check int) "exhaustive" config_bits report.Fault.Campaign.injected;
  Alcotest.(check bool) "at least one flip visible at the outputs" true
    (report.Fault.Campaign.mismatches >= 1);
  Alcotest.(check bool) "but not every flip (reachability masks)" true
    (report.Fault.Campaign.masked >= 1);
  Alcotest.(check int) "every site classified"
    report.Fault.Campaign.injected
    (report.Fault.Campaign.masked + report.Fault.Campaign.mismatches
     + report.Fault.Campaign.hangs);
  Alcotest.(check int) "no job failures" 0 report.Fault.Campaign.failed

let test_reg_upset_hang () =
  (* A 1-bit self-holding register drives [done]; upsetting it at cycle 0
     clears it forever, so the faulty run never completes: a hang, not a
     mismatch. *)
  let b = Rtl.Builder.create "hangy" in
  let q = Rtl.Builder.reg_declare b ~init:(Bitvec.ones 1) "alive" ~width:1 in
  Rtl.Builder.reg_connect b "alive" q;
  Rtl.Builder.output b "done" q;
  let design = Rtl.Builder.finish b in
  let stimulus = List.init 4 (fun _ -> []) in
  let spec = Fault.Sim.spec ~done_signal:"done" ~stimulus ~watch:[] design in
  let golden = Fault.Sim.golden spec in
  Alcotest.(check bool) "golden completes" true golden.Fault.Sim.done_seen;
  match
    Fault.Sim.run_site spec golden
      (Fault.Site.Reg_bit { reg = "alive"; bit = 0; cycle = 0 })
  with
  | Fault.Sim.Hang _ -> ()
  | o ->
    Alcotest.failf "expected hang, got %s" (Fault.Sim.outcome_to_string o)

let test_reg_upset_unknown_register_raises () =
  (* A simulation that raises is not a classification: the exception
     reaches the caller, and a campaign's batch turns it into a failed
     row. *)
  let spec = flexible_spec 1 in
  let golden = Fault.Sim.golden spec in
  match
    Fault.Sim.run_site spec golden
      (Fault.Site.Reg_bit { reg = "no_such_reg"; bit = 0; cycle = 0 })
  with
  | exception Invalid_argument _ -> ()
  | o ->
    Alcotest.failf "unknown register classified as %s"
      (Fault.Sim.outcome_to_string o)

let test_outcome_codec () =
  List.iter
    (fun o ->
      match Fault.Sim.outcome_of_string (Fault.Sim.outcome_to_string o) with
      | Ok o' when o = o' -> ()
      | Ok o' ->
        Alcotest.failf "codec mangled %s into %s"
          (Fault.Sim.outcome_to_string o)
          (Fault.Sim.outcome_to_string o')
      | Error m -> Alcotest.failf "codec rejected its own encoding: %s" m)
    [
      Fault.Sim.Masked;
      Fault.Sim.Mismatch { cycle = 3; signal = "out 2" };
      Fault.Sim.Hang "done never asserted within 24 cycles";
    ]

(* ---------------------------------------------------------- determinism *)

let test_campaign_deterministic () =
  let spec = flexible_spec 2 in
  let run jobs =
    Fault.Campaign.run ~jobs ~seed:7 ~sites:20 ~model:Fault.Campaign.All spec
  in
  let a = run 1 in
  Alcotest.(check bool) "same seed, same report" true (a = run 1);
  Alcotest.(check bool) "independent of worker count" true (a = run 3);
  let sites (r : Fault.Campaign.report) =
    List.map (fun row -> row.Fault.Campaign.site) r.Fault.Campaign.rows
  in
  let b = Fault.Campaign.run ~seed:8 ~sites:20 ~model:Fault.Campaign.All spec in
  Alcotest.(check bool) "different seed, different sample" true
    (sites a <> sites b);
  (* The control site survives sampling under the All model. *)
  Alcotest.(check bool) "control site retained" true
    (List.mem Fault.Site.No_fault (sites a))

(* ---------------------------------------------------------------- store *)

(* A campaign's store is an engine over a cache dir; the tests truncate,
   spoil and read back its results journal. *)
let journal dir = Filename.concat dir "results.jsonl"
let store dir = Engine.create ~cache_dir:dir lib

(* [f dir] on a fresh cache dir, removed afterwards. *)
let with_dir =
  let counter = ref 0 in
  fun f ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fault-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists (journal dir) then Sys.remove (journal dir);
        if Sys.file_exists dir then Sys.rmdir dir)
      (fun () -> f dir)
let records dir = Engine.Journal.load (journal dir)

let rewrite_journal dir f =
  let lines = In_channel.with_open_text (journal dir) In_channel.input_lines in
  Out_channel.with_open_text (journal dir) (fun oc ->
      List.iteri (fun i l -> Out_channel.output_string oc (f i l)) lines)

(* The state a kill leaves: every record is flushed, so the journal holds
   the first [n] records and at most a torn part of the next. *)
let kill_after dir n =
  rewrite_journal dir (fun i l ->
      if i < n then l ^ "\n"
      else if i = n then String.sub l 0 (String.length l / 2)
      else "")

(* [f ()] and what it added to the counter [name]. *)
let counting name f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      (r, Obs.Metrics.counter_value (Obs.Metrics.counter name)))

let render r = Fault.Campaign.to_table r ^ Fault.Campaign.summary_line r

let test_campaign_resume_identical () =
  let spec = flexible_spec 3 in
  with_dir @@ fun dir ->
  let model = Fault.Campaign.Tables in
  let run ?engine ?on_checkpoint () =
    Fault.Campaign.run ?engine ?on_checkpoint ~seed:5 ~sites:16 ~model spec
  in
  let fresh = run () in
  Alcotest.(check bool) "storing does not change the report" true
    (fresh = run ~engine:(store dir) ());
  Alcotest.(check int) "every site stored" 16 (List.length (records dir));
  (* Resume from a partial journal, as if the first run was killed. *)
  kill_after dir 7;
  let stored = ref 0 in
  let resumed =
    run ~engine:(store dir) ~on_checkpoint:(fun n -> stored := n) ()
  in
  Alcotest.(check bool) "resumed report = fresh report" true (fresh = resumed);
  Alcotest.(check string) "rendered output byte-identical" (render fresh)
    (render resumed);
  Alcotest.(check int) "only the lost sites ran and were stored" 9 !stored

(* A campaign resumed from its full journal has no pending site, so it
   must not even simulate the RTL golden. *)
let test_campaign_full_resume_simulates_nothing () =
  let spec = flexible_spec 3 in
  with_dir @@ fun dir ->
  let model = Fault.Campaign.Tables in
  let run () =
    Fault.Campaign.run ~engine:(store dir) ~seed:5 ~sites:8 ~model spec
  in
  let fresh = run () in
  let resumed, instances = counting "rtl.eval.instances" run in
  Alcotest.(check int) "no RTL simulation" 0 instances;
  Alcotest.(check bool) "resumed report = fresh report" true (fresh = resumed)

(* A store written at one stimulus length serves no site of a campaign
   at another: the rerun equals a storeless run. *)
let test_campaign_stale_rtl () =
  with_dir @@ fun dir ->
  let run ?engine cycles =
    Fault.Campaign.run ?engine ~seed:2 ~sites:24 ~model:Fault.Campaign.Tables
      (flexible_spec ~cycles 3)
  in
  let long = run ~engine:(store dir) 12 in
  let short = run 2 in
  Alcotest.(check bool) "the two lengths classify differently" true
    (long.Fault.Campaign.rows <> short.Fault.Campaign.rows);
  Alcotest.(check string) "rerun at 2 cycles = storeless run" (render short)
    (render (run ~engine:(store dir) 2))

(* ------------------------------------------------------------- netlist *)

let test_stuck_at_netlist () =
  let fsm = small_fsm 4 in
  let design =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let aig = (Synth.Flow.compile lib design).Synth.Flow.aig in
  let aspec = { Fault.Sim.aig; cycles = 16; seed = 11 } in
  let golden = Fault.Sim.aig_golden aspec in
  (match Fault.Sim.aig_run_site aspec golden Fault.Site.No_fault with
   | Fault.Sim.Masked -> ()
   | o ->
     Alcotest.failf "no-fault netlist run should mask, got %s"
       (Fault.Sim.outcome_to_string o));
  let sites = Fault.Site.stuck_sites aig in
  Alcotest.(check bool) "both polarities for every AND" true
    (List.length sites = 2 * Aig.num_ands aig && sites <> []);
  let outcomes = List.map (Fault.Sim.aig_run_site aspec golden) sites in
  let visible =
    List.length
      (List.filter (function Fault.Sim.Mismatch _ -> true | _ -> false) outcomes)
  in
  Alcotest.(check bool) "some stuck faults reach an output" true (visible > 0);
  Alcotest.(check bool) "some stuck faults are masked" true
    (visible < List.length sites)

(* A bound random FSM lowered to a netlist — the stuck-at fault surface
   for the packed-vs-scalar identity checks (no full synthesis flow, so
   the property iterates cheaply). *)
let lowered_aig seed =
  let fsm = small_fsm seed in
  let design =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  (Synth.Lower.run design).Synth.Lower.aig

let prop_packed_sites_identical =
  Prop.test ~iters:20 "packed site classification = scalar"
    (Prop.int 100_000)
    (fun seed ->
      let aig = lowered_aig seed in
      let aspec = { Fault.Sim.aig; cycles = 12; seed = seed + 1 } in
      let golden = Fault.Sim.aig_golden aspec in
      (* Keep several packed chunks' worth so the chunking seam at
         [Aig.Compiled.lanes] is exercised. *)
      let sites =
        List.filteri (fun i _ -> i < 150) (Fault.Site.stuck_sites aig)
      in
      let scalar =
        List.map (fun s -> (s, Fault.Sim.aig_run_site aspec golden s)) sites
      in
      Fault.Sim.aig_run_sites_packed aspec golden sites = scalar)

(* The scalar netlist run as it stood before it shared [Aig.Compiled.run]
   and the packed pass's force helper, kept as the oracle of
   [Fault.Sim.aig_run_site]: it forces the stuck node on every lane, reads
   PO names off each row and compares against a (PO name, value) golden. *)
let oracle_aig_run (spec : Fault.Sim.aig_spec) ~force =
  let c = Aig.Compiled.compile spec.aig in
  let s = Aig.Compiled.sim c in
  (match force with
   | Some (node, value) ->
     if value then
       Aig.Compiled.add_force s ~node ~set:Aig.Compiled.all_lanes ~clear:0
     else Aig.Compiled.add_force s ~node ~set:0 ~clear:Aig.Compiled.all_lanes
   | None -> ());
  let rng = Workload.Rng.make spec.seed in
  let stim =
    Array.init spec.cycles (fun _ ->
        Array.init (Aig.num_pis spec.aig) (fun _ -> Workload.Rng.bool rng))
  in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let out = Array.make spec.cycles [] in
  for cycle = 0 to spec.cycles - 1 do
    for i = 0 to npis - 1 do
      Aig.Compiled.set_pi s i (Aig.Compiled.replicate stim.(cycle).(i))
    done;
    Aig.Compiled.step s;
    out.(cycle) <-
      List.init npos (fun k ->
          (Aig.Compiled.po_name c k, Aig.Compiled.po s k land 1 = 1))
  done;
  out

let oracle_aig_run_site spec golden site =
  let force =
    match site with
    | Fault.Site.Stuck_at { node; value } -> Some (node, value)
    | Fault.Site.No_fault -> None
    | Fault.Site.Table_bit _ | Fault.Site.Reg_bit _ ->
      invalid_arg "oracle: RTL-state site"
  in
  let faulty = oracle_aig_run spec ~force in
  let rec rows cycle =
    if cycle >= spec.Fault.Sim.cycles then Fault.Sim.Masked
    else
      let rec cells gs fs =
        match (gs, fs) with
        | [], [] -> None
        | (name, gv) :: gs, (_, fv) :: fs ->
          if gv = (fv : bool) then cells gs fs else Some name
        | _ -> assert false
      in
      match cells golden.(cycle) faulty.(cycle) with
      | Some signal -> Fault.Sim.Mismatch { cycle; signal }
      | None -> rows (cycle + 1)
  in
  rows 0

let prop_scalar_site_matches_oracle =
  Prop.test ~iters:40 "scalar site run = all-lane oracle" (Prop.int 100_000)
    (fun seed ->
      let aig = lowered_aig seed in
      let aspec = { Fault.Sim.aig; cycles = 12; seed = seed + 3 } in
      let golden = Fault.Sim.aig_golden aspec in
      let oracle_golden = oracle_aig_run aspec ~force:None in
      List.for_all
        (fun site ->
          Fault.Sim.aig_run_site aspec golden site
          = oracle_aig_run_site aspec oracle_golden site)
        (Fault.Site.No_fault :: Fault.Site.stuck_sites aig))

let test_rtl_site_on_netlist_raises () =
  let aig = lowered_aig 2 in
  let aspec = { Fault.Sim.aig; cycles = 4; seed = 1 } in
  let golden = Fault.Sim.aig_golden aspec in
  let scalar site = ignore (Fault.Sim.aig_run_site aspec golden site) in
  (* The packed pass gets the RTL-state site after a stuck-at one, so it
     raises mid-chunk, not on its first lane. *)
  let packed site =
    let stuck = List.hd (Fault.Site.stuck_sites aig) in
    ignore (Fault.Sim.aig_run_sites_packed aspec golden [ stuck; site ])
  in
  List.iter
    (fun (run, site) ->
      match run site with
      | exception Invalid_argument _ -> ()
      | () ->
        Alcotest.failf "RTL-state site %s on the netlist classified"
          (Fault.Site.key site))
    [ (scalar, Fault.Site.Table_bit { table = "t"; entry = 0; bit = 0 });
      (scalar, Fault.Site.Reg_bit { reg = "r"; bit = 0; cycle = 0 });
      (packed, Fault.Site.Reg_bit { reg = "r"; bit = 0; cycle = 0 }) ]

let test_campaign_packed_identical () =
  let aig = lowered_aig 6 in
  let aspec = { Fault.Sim.aig; cycles = 12; seed = 21 } in
  let spec = flexible_spec 6 in
  let r =
    Fault.Campaign.run ~aig:aspec ~seed:9 ~sites:80 ~model:Fault.Campaign.Stuck
      spec
  in
  Alcotest.(check bool) "sites classified" true (r.Fault.Campaign.injected > 0);
  (* The campaign's packed pre-pass classifies each sampled site exactly as
     the scalar simulator does. *)
  let golden = Fault.Sim.aig_golden aspec in
  let scalar =
    List.map
      (fun (row : Fault.Campaign.row) ->
        { row with result = Ok (Fault.Sim.aig_run_site aspec golden row.site) })
      r.rows
  in
  Alcotest.(check bool) "rows = scalar oracle" true (r.rows = scalar)

let test_campaign_packed_resume () =
  let aig = lowered_aig 7 in
  let aspec = { Fault.Sim.aig; cycles = 12; seed = 33 } in
  let spec = flexible_spec 7 in
  with_dir @@ fun dir ->
  let run ?engine () =
    Fault.Campaign.run ?engine ~aig:aspec ~seed:3 ~sites:70
      ~model:Fault.Campaign.Stuck spec
  in
  let fresh = run () in
  Alcotest.(check bool) "storing does not change the report" true
    (fresh = run ~engine:(store dir) ());
  kill_after dir 31;
  Alcotest.(check bool) "packed resume = fresh report" true
    (fresh = run ~engine:(store dir) ())

let test_campaign_packed_resume_garbage () =
  (* Every site is stored, but one payload no longer decodes. The packed
     pre-pass covers exactly the sites the store leaves unsettled, so that
     one site is its only lane. *)
  let aig = lowered_aig 7 in
  let aspec = { Fault.Sim.aig; cycles = 12; seed = 33 } in
  let spec = flexible_spec 7 in
  with_dir @@ fun dir ->
  let run () =
    Fault.Campaign.run ~engine:(store dir) ~aig:aspec ~seed:3 ~sites:70
      ~model:Fault.Campaign.Stuck spec
  in
  let fresh = run () in
  let spoiled = List.nth (records dir) 17 in
  rewrite_journal dir (fun i l ->
      if i <> 17 then l ^ "\n"
      else
        Report.Json.to_string
          (Report.Json.Obj
             [ ("k", Report.Json.String spoiled.key);
               ("v", Report.Json.String "no such outcome") ])
        ^ "\n");
  let resumed, packed = counting "fault.campaign.packed_sites" run in
  let recomputed = List.filteri (fun i _ -> i >= 70) (records dir) in
  Alcotest.(check int) "only the spoiled site is packed" 1 packed;
  Alcotest.(check (list (pair string string)))
    "only the spoiled site ran, its payload recomputed exactly"
    [ (spoiled.key, spoiled.value) ]
    (List.map (fun (e : Engine.Journal.entry) -> (e.key, e.value)) recomputed);
  Alcotest.(check bool) "resumed report = fresh report" true (fresh = resumed)

(* A store written at 12 netlist cycles serves no site of a 1-cycle
   campaign on the same netlist: the rerun equals a storeless run. *)
let test_campaign_stale_stuck () =
  let aig = lowered_aig 7 in
  with_dir @@ fun dir ->
  let run ?engine cycles =
    Fault.Campaign.run ?engine
      ~aig:{ Fault.Sim.aig; cycles; seed = 33 }
      ~seed:3 ~sites:70 ~model:Fault.Campaign.Stuck (flexible_spec 7)
  in
  let long = run ~engine:(store dir) 12 in
  let short = run 1 in
  Alcotest.(check bool) "the two lengths classify differently" true
    (long.Fault.Campaign.rows <> short.Fault.Campaign.rows);
  Alcotest.(check string) "rerun at 1 cycle = storeless run" (render short)
    (render (run ~engine:(store dir) 1))

(* ----------------------------------------------------------------- vcd *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_vcd_of_first_mismatch () =
  let spec = flexible_spec 1 in
  let report =
    Fault.Campaign.run ~seed:0 ~sites:0 ~model:Fault.Campaign.Tables spec
  in
  match Fault.Campaign.first_mismatch report with
  | None -> Alcotest.fail "exhaustive table campaign found no mismatch"
  | Some site ->
    let vcd = Fault.Sim.vcd_site spec site in
    Alcotest.(check bool) "declares the watched signal" true
      (contains vcd "out");
    Alcotest.(check bool) "well-formed header" true
      (contains vcd "$enddefinitions")

let () =
  Alcotest.run "fault"
    [
      ( "classify",
        [
          Alcotest.test_case "control campaign 100% masked" `Quick
            test_control_all_masked;
          Alcotest.test_case "table bit flip visible" `Quick
            test_table_flip_visible;
          Alcotest.test_case "register upset hang" `Quick test_reg_upset_hang;
          Alcotest.test_case "unknown register raises" `Quick
            test_reg_upset_unknown_register_raises;
          Alcotest.test_case "outcome codec round-trip" `Quick
            test_outcome_codec;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic across seeds and jobs" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "journal resume identical" `Quick
            test_campaign_resume_identical;
          Alcotest.test_case "full resume simulates nothing" `Quick
            test_campaign_full_resume_simulates_nothing;
          Alcotest.test_case "no stale resume across stimulus lengths" `Quick
            test_campaign_stale_rtl;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "stuck-at on the mapped AIG" `Quick
            test_stuck_at_netlist;
          prop_packed_sites_identical;
          prop_scalar_site_matches_oracle;
          Alcotest.test_case "RTL-state site raises" `Quick
            test_rtl_site_on_netlist_raises;
          Alcotest.test_case "campaign packed = scalar" `Quick
            test_campaign_packed_identical;
          Alcotest.test_case "campaign packed resume identical" `Quick
            test_campaign_packed_resume;
          Alcotest.test_case "packed resume recomputes a bad payload" `Quick
            test_campaign_packed_resume_garbage;
          Alcotest.test_case "no stale resume across netlist cycles" `Quick
            test_campaign_stale_stuck;
        ] );
      ( "vcd", [ Alcotest.test_case "first mismatch trace" `Quick
                   test_vcd_of_first_mismatch ] );
    ]
