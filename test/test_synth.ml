let lib = Cells.Library.vt90

let check_equiv name a b =
  match Synth.Equiv.run (Synth.Equiv.Sim { seed = 5 }) a b with
  | Synth.Equiv.Refuted c ->
    Alcotest.failf "%s: mismatch at cycle %d on %s" name c.first.cycle
      c.first.output
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ()

(* --------------------------------------------------------------- lowering *)

let test_lower_matches_eval () =
  (* Random small designs exercising all word-level operators. *)
  let check_one seed =
    let rng = Random.State.make [| seed |] in
    let b = Rtl.Builder.create "rand" in
    let x = Rtl.Builder.input b "x" 5 in
    let y = Rtl.Builder.input b "y" 5 in
    let q =
      Rtl.Builder.reg b "q" ~reset:Rtl.Design.Sync_reset
        ~d:(Rtl.Expr.add x y)
    in
    let pick2 =
      [
        Rtl.Expr.and_ x y; Rtl.Expr.or_ x y; Rtl.Expr.xor x y;
        Rtl.Expr.add x y; Rtl.Expr.sub x y; Rtl.Expr.not_ x; q;
        Rtl.Expr.mux (Rtl.Expr.bit y 0) x q;
      ]
    in
    let e = List.nth pick2 (Random.State.int rng (List.length pick2)) in
    Rtl.Builder.output b "o1" e;
    Rtl.Builder.output b "o2"
      (Rtl.Expr.concat
         [ Rtl.Expr.eq x y; Rtl.Expr.ult x y; Rtl.Expr.red_xor x;
           Rtl.Expr.red_and y; Rtl.Expr.red_or x ]);
    Rtl.Builder.output b "o3" (Rtl.Expr.slice (Rtl.Expr.concat [ x; y ]) ~hi:7 ~lo:2);
    let d = Rtl.Builder.finish b in
    let low = Synth.Lower.run d in
    match Synth.Equiv.rtl_vs_aig ~seed d low.Synth.Lower.aig with
    | None -> ()
    | Some m ->
      Alcotest.failf "seed %d: RTL/AIG mismatch at cycle %d on %s" seed
        m.Synth.Equiv.cycle m.Synth.Equiv.output
  in
  List.iter check_one [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* [Equiv.rtl_vs_aig] as it stood before it resolved names once, kept as
   its oracle: it compiles the AIG on every run, parses each PI name
   ["sig[i]"] back into (input, bit) on every lookup, and finds each
   output bit's PO by a formatted name. *)
let oracle_rtl_vs_aig ~seed (d : Rtl.Design.t) g =
  let cycles = 64 and runs = 8 in
  let aig_run ~input =
    let c = Aig.Compiled.compile g in
    let s = Aig.Compiled.sim c in
    let npos = Aig.Compiled.num_pos c in
    let names = Array.init npos (Aig.Compiled.po_name c) in
    let rows = ref [] in
    for cycle = 0 to cycles - 1 do
      for i = 0 to Aig.Compiled.num_pis c - 1 do
        Aig.Compiled.set_pi s i
          (Aig.Compiled.replicate (input cycle (Aig.Compiled.pi_name c i)))
      done;
      Aig.Compiled.step s;
      rows := Array.init npos (fun k -> Aig.Compiled.po s k land 1 = 1) :: !rows
    done;
    (names, List.rev !rows)
  in
  let rec run_i i =
    if i >= runs then None
    else begin
      let rng = Random.State.make [| seed; i; 77 |] in
      let st = Rtl.Eval.create d in
      let tape =
        Array.init cycles (fun _ ->
            List.map
              (fun (s : Rtl.Signal.t) ->
                ( s.name,
                  Bitvec.of_bits
                    (List.init s.width (fun _ -> Random.State.bool rng)) ))
              d.inputs)
      in
      let input cycle name =
        let base, idx =
          match String.index_opt name '[' with
          | Some k ->
            ( String.sub name 0 k,
              int_of_string (String.sub name (k + 1) (String.length name - k - 2)) )
          | None -> (name, 0)
        in
        Bitvec.get (List.assoc base tape.(cycle)) idx
      in
      let aig_names, aig_rows = aig_run ~input in
      let aig_pos = Hashtbl.create (Array.length aig_names) in
      Array.iteri (fun k name -> Hashtbl.replace aig_pos name k) aig_names;
      let rec cycle_loop cycle = function
        | [] -> None
        | (row : bool array) :: rest ->
          List.iter (fun (name, v) -> Rtl.Eval.set_input st name v) tape.(cycle);
          let bad =
            List.fold_left
              (fun acc ((s : Rtl.Signal.t), _) ->
                match acc with
                | Some _ -> acc
                | None ->
                  let v = Rtl.Eval.peek st s.name in
                  let rec check i =
                    if i >= s.width then None
                    else begin
                      let expected = Bitvec.get v i in
                      let name = Printf.sprintf "%s[%d]" s.name i in
                      let got = row.(Hashtbl.find aig_pos name) in
                      if got <> expected then
                        Some { Synth.Equiv.cycle; output = name; got; expected }
                      else check (i + 1)
                    end
                  in
                  check 0)
              None d.outputs
          in
          (match bad with
           | Some m -> Some m
           | None ->
             Rtl.Eval.step st;
             cycle_loop (cycle + 1) rest)
      in
      match cycle_loop 0 aig_rows with
      | Some m -> Some m
      | None -> run_i (i + 1)
    end
  in
  run_i 0

(* Lowered and flow netlists of a random design, each also with one PO
   complemented so refutations are compared too. *)
let prop_rtl_vs_aig_matches_oracle =
  Prop.test ~iters:60 "rtl_vs_aig matches oracle" (Prop.int 100_000)
    (fun seed ->
      let d = Workload.Rand_design.generate ~seed in
      let low = (Synth.Lower.run d).Synth.Lower.aig in
      let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
      let flip g = Aig_util.invert_po (seed mod List.length (Aig.pos g)) g in
      List.for_all
        (fun g ->
          Synth.Equiv.rtl_vs_aig ~seed d g
          = oracle_rtl_vs_aig ~seed d g)
        [ low; opt; flip low; flip opt ])

let test_rtl_vs_aig_unknown_input () =
  let d = Workload.Rand_design.generate ~seed:3 in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  ignore (Aig.pi g "bogus[0]");
  match Synth.Equiv.rtl_vs_aig ~seed:1 d g with
  | exception Invalid_argument msg ->
    let needle = "bogus[0]" in
    let n = String.length needle in
    let rec mem i =
      i + n <= String.length msg && (String.sub msg i n = needle || mem (i + 1))
    in
    if not (mem 0) then Alcotest.failf "message does not name the input: %s" msg
  | _ -> Alcotest.fail "an AIG input that is no RTL input bit was accepted"

let test_lower_rom_folds () =
  (* A constant table lowers to pure logic: no latches at all. *)
  let tt = Workload.Rand_table.generate ~seed:1 ~depth:16 ~width:4 in
  let low =
    Synth.Lower.run
      (Synth.Partial_eval.bind_tables
         (Core.Truth_table.to_flexible_rtl tt)
         [ Core.Truth_table.config_binding tt ])
  in
  Alcotest.(check int) "no latches" 0 (Aig.num_latches low.Synth.Lower.aig)

let test_lower_config_latches () =
  let tt = Workload.Rand_table.generate ~seed:1 ~depth:16 ~width:4 in
  let low = Synth.Lower.run (Core.Truth_table.to_flexible_rtl tt) in
  Alcotest.(check int) "one latch per config bit" 64
    (Aig.num_latches low.Synth.Lower.aig)

(* --------------------------------------------------------------- collapse *)

let test_collapse_preserves () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:13 ~num_inputs:3 ~num_outputs:6 ~num_states:7
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Collapse.run ~annots:[] g in
  check_equiv "collapse" g g';
  (* Fig. 5's flexible 256x64 seed-2 table: Espresso's REDUCE once let two
     cubes shrink away from a shared ON minterm, and the flow miscompiled
     this table. *)
  let tt = Workload.Rand_table.generate ~seed:2 ~depth:256 ~width:64 in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Truth_table.to_flexible_rtl tt)
      [ Core.Truth_table.config_binding tt ]
  in
  let r = Synth.Flow.compile lib d in
  match Synth.Equiv.rtl_vs_aig ~seed:5 d r.Synth.Flow.aig with
  | None -> ()
  | Some m ->
    Alcotest.failf "t256x64_s2: mismatch at cycle %d on %s" m.cycle m.output

let test_collapse_with_constraints () =
  (* out = (y == 3) with y annotated to {0,1}: must fold to constant 0. *)
  let b = Rtl.Builder.create "con" in
  let x = Rtl.Builder.input b "x" 1 in
  let y =
    Rtl.Builder.reg b "y" ~reset:Rtl.Design.Sync_reset
      ~d:(Rtl.Expr.zero_extend x 2)
  in
  Rtl.Builder.output b "hit" (Rtl.Expr.eq_const y 3);
  Rtl.Builder.annotate b
    (Rtl.Annot.value_set "y" [ Bitvec.zero 2; Bitvec.of_int ~width:2 1 ]);
  let d = Rtl.Builder.finish b in
  let low = Synth.Lower.run d in
  let annots = Synth.Annots.extract low in
  Alcotest.(check int) "annotation extracted" 1 (List.length annots);
  let g' = Synth.Collapse.run ~annots low.Synth.Lower.aig in
  let g' = Synth.Sweep.run g' in
  Alcotest.(check int) "logic folded away" 0 (Aig.num_ands g')

(* One memo shared across designs, passes, orders and domains returns the
   same covers as a fresh memo per compile: the final graphs and areas
   match exactly, and the counters (espresso calls at insertion, hits
   otherwise) do not depend on the worker count. *)
let memo_corpus () =
  let tt = Workload.Rand_table.generate ~seed:0 ~depth:256 ~width:64 in
  let fsm =
    Workload.Rand_fsm.generate ~seed:0 ~num_inputs:8 ~num_outputs:8
      ~num_states:8
  in
  let default = Synth.Flow.default in
  List.init 30 (fun seed -> (default, Workload.Rand_design.generate ~seed))
  @ [
      ( default,
        Synth.Partial_eval.bind_tables
          (Core.Truth_table.to_flexible_rtl tt)
          [ Core.Truth_table.config_binding tt ] );
      (default, Core.Truth_table.to_sop_rtl tt);
      ( Experiments.Exp_common.annotated_flow,
        Synth.Partial_eval.bind_tables
          (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
          (Core.Fsm_ir.config_bindings fsm) );
      (default, Pctrl.Controller.auto_design Pctrl.Controller.Uncached);
    ]

let test_collapse_shared_memo () =
  let corpus = memo_corpus () in
  let fresh =
    List.map (fun (options, d) -> Synth.Flow.compile ~options lib d) corpus
  in
  let memo = Synth.Collapse.create_memo () in
  let shared order =
    List.map
      (fun (options, d) -> Synth.Flow.compile ~options ~memo lib d)
      order
  in
  let forward = shared corpus in
  let reverse = List.rev (shared (List.rev corpus)) in
  List.iteri
    (fun i (f, (fw, rv)) ->
      let same (r : Synth.Flow.result) =
        Aig.equal f.Synth.Flow.aig r.Synth.Flow.aig
        && Synth.Flow.area f = Synth.Flow.area r
      in
      if not (same fw && same rv) then
        Alcotest.failf "%s (corpus item %d): shared memo changed the result"
          (snd (List.nth corpus i)).Rtl.Design.name i)
    (List.combine fresh (List.combine forward reverse));
  let batch jobs =
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        let engine = Engine.create ~jobs ~no_cache:true lib in
        let summaries =
          List.map
            (function
              | Ok s -> s
              | Error e -> Alcotest.fail (Engine.Pool.error_message e))
            (Engine.run engine
               (List.map (fun (options, d) -> Engine.job ~options d) corpus))
        in
        let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
        ( summaries,
          counter "synth.collapse.espresso_calls",
          counter "synth.collapse.memo_hits" ))
  in
  let s1, calls1, hits1 = batch 1 and s2, calls2, hits2 = batch 2 in
  Alcotest.(check bool) "summaries equal at -j 1 and -j 2" true (s1 = s2);
  Alcotest.(check bool) "engine areas match fresh compiles" true
    (List.map Engine.Summary.area s1 = List.map Synth.Flow.area fresh);
  Alcotest.(check int) "espresso_calls equal at -j 1 and -j 2" calls1 calls2;
  Alcotest.(check int) "memo_hits equal at -j 1 and -j 2" hits1 hits2;
  Alcotest.(check bool) "the batch reuses analyses" true (hits1 > 0)

(* The bounded walk collapse groups roots with: the same leaves and nodes
   as [Aig.cone] up to [cap] leaves, "too wide" beyond, with one mark
   array reused across every root of the graph. *)
let arb_cone_case =
  Prop.make
    ~show:(fun (seed, cap) -> Printf.sprintf "design %d, cap %d" seed cap)
    (fun rng -> (Workload.Rng.int rng 1000, Workload.Rng.int rng 21))

let prop_bounded_cone =
  Prop.test ~iters:25 "bounded cone = Aig.cone" arb_cone_case (fun (seed, cap) ->
      let d = Workload.Rand_design.generate ~seed in
      let g = (Synth.Lower.run d).Synth.Lower.aig in
      let walk = Aig.bounded_cone g ~cap in
      List.for_all
        (fun n ->
          let ((leaves, _) as cone) = Aig.cone g [ Aig.lit_of_node n false ] in
          match walk n with
          | Some c -> List.length leaves <= cap && c = cone
          | None -> List.length leaves > cap)
        (List.init (Aig.num_nodes g) Fun.id))

(* ------------------------------------------------------------------ sweep *)

let test_sweep_constant_latch () =
  let b = Rtl.Builder.create "cl" in
  let x = Rtl.Builder.input b "x" 1 in
  (* r holds a constant equal to its init: removable. *)
  let _r =
    Rtl.Builder.reg b "r" ~reset:Rtl.Design.Sync_reset ~d:(Rtl.Expr.of_int ~width:1 0)
  in
  let r = Rtl.Expr.signal (Rtl.Signal.make "r" 1) in
  Rtl.Builder.output b "o" (Rtl.Expr.or_ x r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "latch removed" 0 (Aig.num_latches g');
  check_equiv "const latch" g g'

let test_sweep_merges_duplicates () =
  let b = Rtl.Builder.create "dup" in
  let x = Rtl.Builder.input b "x" 1 in
  let r1 = Rtl.Builder.reg b "r1" ~d:x in
  let r2 = Rtl.Builder.reg b "r2" ~d:x in
  Rtl.Builder.output b "o" (Rtl.Expr.xor r1 r2);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  (* identical latches merge, then xor r r = 0 and the last latch dangles *)
  Alcotest.(check int) "all latches gone" 0 (Aig.num_latches g');
  check_equiv "merge" g g'

let test_sweep_keeps_config () =
  let tt = Workload.Rand_table.generate ~seed:3 ~depth:8 ~width:2 in
  let g = (Synth.Lower.run (Core.Truth_table.to_flexible_rtl tt)).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "config latches survive" 16 (Aig.num_latches g')

(* ---------------------------------------------------------------- simsig *)

let test_simsig_latch_filter () =
  (* A toggling latch leaves its init under simulation and must be
     disqualified as a constant candidate; a self-holding latch never
     moves and stays one. Their state streams differ, so do their
     signatures; a non-latch node has neither. *)
  let g = Aig.create () in
  let x = Aig.pi g "x" in
  let t =
    Aig.latch g "t" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g t (Aig.not_ t);
  let h =
    Aig.latch g "h" ~init:true ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g h h;
  Aig.po g "o" (Aig.and_ g (Aig.and_ g t h) x);
  let sigs = Synth.Simsig.compute g in
  let t = Aig.node_of_lit t and h = Aig.node_of_lit h in
  Alcotest.(check bool) "toggler disqualified" false
    (Synth.Simsig.latch_may_be_const sigs t);
  Alcotest.(check bool) "self-holder stays candidate" true
    (Synth.Simsig.latch_may_be_const sigs h);
  Alcotest.(check bool) "toggler and self-holder differ" true
    (Synth.Simsig.latch_signature sigs t <> Synth.Simsig.latch_signature sigs h);
  Alcotest.check_raises "a PI is not a latch"
    (Invalid_argument "Simsig.latch_signature: not a latch") (fun () ->
      ignore (Synth.Simsig.latch_signature sigs (Aig.node_of_lit x)))

let test_sweep_simfilter_two_latches () =
  (* Two latches puts Sweep.run on the signature-filtered path: the
     self-holding constant still folds, the toggler survives. *)
  let g = Aig.create () in
  let x = Aig.pi g "x" in
  let c =
    Aig.latch g "c" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g c c;
  let t =
    Aig.latch g "t" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g t (Aig.not_ t);
  Aig.po g "o" (Aig.or_ g (Aig.or_ g x c) t);
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "constant folds, toggler survives" 1
    (Aig.num_latches g');
  check_equiv "simfilter" g g'

(* ----------------------------------------------------------------- retime *)

let test_retime_preserves () =
  let b = Rtl.Builder.create "rt" in
  let x = Rtl.Builder.input b "x" 4 in
  let r = Rtl.Builder.reg b "r" ~reset:Rtl.Design.No_reset ~d:x in
  Rtl.Builder.output b "allset" (Rtl.Expr.red_and r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Retime.run g in
  check_equiv "retime" g g';
  (* The four 1-bit latches merge forward into one latch of the AND. *)
  Alcotest.(check int) "forward-merged" 1 (Aig.num_latches g')

let test_retime_refuses_reset () =
  let b = Rtl.Builder.create "rt2" in
  let x = Rtl.Builder.input b "x" 4 in
  let r = Rtl.Builder.reg b "r" ~reset:Rtl.Design.Sync_reset ~d:x in
  Rtl.Builder.output b "allset" (Rtl.Expr.red_and r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Retime.run g in
  Alcotest.(check int) "latches unchanged" 4 (Aig.num_latches g')

(* -------------------------------------------------------------- stateprop *)

let onehot_generic n =
  Experiments.Onehot_design.generic ~n
    ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset)

let test_stateprop_folds_onehot () =
  let d = onehot_generic 16 in
  let low = Synth.Lower.run d in
  let annots =
    Synth.Annots.honored ~generator:true ~width_cap:32
      (Synth.Annots.extract low)
  in
  Alcotest.(check int) "one annotation" 1 (List.length annots);
  let g' = Synth.Stateprop.run ~annots low.Synth.Lower.aig in
  check_equiv "stateprop" low.Synth.Lower.aig g';
  (* After the full annotated flow, the generic design reaches the direct
     design's area — the detector and mux are gone. *)
  let options = { Synth.Flow.default with honor_generator_annots = true } in
  let direct =
    Experiments.Onehot_design.direct ~n:16
      ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset)
  in
  let a_generic = Synth.Flow.area (Synth.Flow.compile ~options lib d) in
  let a_direct = Synth.Flow.area (Synth.Flow.compile ~options lib direct) in
  Alcotest.(check (float 0.01)) "generic reaches ideal" a_direct a_generic

let test_stateprop_width_cap () =
  let d = onehot_generic 64 in
  let low = Synth.Lower.run d in
  let annots =
    Synth.Annots.honored ~generator:true ~width_cap:32
      (Synth.Annots.extract low)
  in
  Alcotest.(check int) "annotation filtered by cap" 0 (List.length annots)

(* ------------------------------------------------------------------- map *)

let test_map_cells () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and s = Aig.pi g "s" in
  Aig.po g "xor" (Aig.xor_ g a b);
  Aig.po g "mux" (Aig.mux_ g s a b);
  let r = Synth.Map.run lib g in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "one XOR cell" 1 (count "XOR2" + count "XNOR2");
  Alcotest.(check int) "one MUX cell" 1 (count "MUX2");
  Alcotest.(check bool) "positive delay" true (r.Synth.Map.critical_delay > 0.0)

let test_map_flop_kinds () =
  let b = Rtl.Builder.create "fk" in
  let x = Rtl.Builder.input b "x" 1 in
  let r1 = Rtl.Builder.reg b "r1" ~reset:Rtl.Design.No_reset ~d:x in
  let r2 = Rtl.Builder.reg b "r2" ~reset:Rtl.Design.Sync_reset ~d:r1 in
  let r3 = Rtl.Builder.reg b "r3" ~reset:Rtl.Design.Async_reset ~d:r2 in
  Rtl.Builder.output b "o" r3;
  let d = Rtl.Builder.finish b in
  let r = Synth.Map.run lib (Synth.Lower.run d).Synth.Lower.aig in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "DFF" 1 (count "DFF");
  Alcotest.(check int) "SDFF" 1 (count "SDFF");
  Alcotest.(check int) "ADFF" 1 (count "ADFF");
  Alcotest.(check int) "flops" 3 r.Synth.Map.num_flops;
  Alcotest.(check bool) "seq area" true (r.Synth.Map.seq_area > 60.0)

let test_map_inverter_sharing () =
  (* Two consumers of ~a must share one inverter. *)
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and c = Aig.pi g "c" in
  Aig.po g "o1" (Aig.and_ g (Aig.not_ a) b);
  Aig.po g "o2" (Aig.and_ g (Aig.not_ a) c);
  let r = Synth.Map.run lib g in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "one shared INV" 1 (count "INV")

(* ------------------------------------------------------------------ reach *)

let test_reach_matches_ir () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:2 ~num_inputs:2 ~num_outputs:3 ~num_states:6
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  match Reach.latch_group g ~prefix:"state" with
  | None -> Alcotest.fail "state group not found"
  | Some group ->
    (match Reach.reachable_values g ~group with
     | None -> Alcotest.fail "reachability gave up"
     | Some values ->
       let got = List.sort compare (List.map Bitvec.to_int values) in
       let expected = Core.Fsm_ir.reachable fsm in
       Alcotest.(check (list int)) "BDD reach = IR reach" expected got)

(* ------------------------------------------------------------------ flow *)

let test_flow_checked_and_idempotence () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:4 ~num_inputs:2 ~num_outputs:4 ~num_states:9
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let options = { Synth.Flow.default with honor_generator_annots = true } in
  let r1 = Synth.Flow.compile ~options lib d in
  Aig_util.check_flow_result "fsm seed 4" d r1;
  let r2 = Synth.Flow.compile ~options lib d in
  Alcotest.(check (float 0.001)) "deterministic"
    (Synth.Flow.area r1) (Synth.Flow.area r2)

(* The flow's passes spelled out with both collapse/sweep iterations
   always run: the reference that [Flow.compile], which may stop after the
   first, must match. Returns the graphs entering collapse, after
   iteration 1 and after iteration 2. *)
let two_iteration_chain (options : Synth.Flow.options) d =
  let lowered = Synth.Lower.run d in
  let honored =
    Synth.Annots.honored ~generator:options.honor_generator_annots
      ~width_cap:options.annot_width_cap (Synth.Annots.extract lowered)
  in
  let relocate g = List.filter_map (Synth.Annots.relocate g) honored in
  let sweep g = Synth.Sweep.run g in
  let g0 = sweep lowered.Synth.Lower.aig in
  let g0 = if options.retime then Synth.Retime.run g0 else g0 in
  let g0 =
    if honored <> [] then Synth.Stateprop.run ~annots:(relocate g0) g0 else g0
  in
  let collapse g =
    Synth.Collapse.run ~cap:options.collapse_cap ~annots:(relocate g) g
  in
  let g1 = sweep (collapse g0) in
  (g0, g1, sweep (collapse g1))

let test_flow_fixpoint_skip_transparent () =
  let fixpoints = ref 0 and second_changed = ref 0 in
  let check name options d =
    let g0, g1, g2 = two_iteration_chain options d in
    if Aig.equal g0 g1 then incr fixpoints
    else if not (Aig.equal g1 g2) then incr second_changed;
    let got = (Synth.Flow.compile ~options lib d).Synth.Flow.aig in
    Alcotest.(check bool) (name ^ ": flow = two-iteration chain") true
      (Aig.equal got g2)
  in
  for seed = 0 to 39 do
    check (Printf.sprintf "rand %d" seed) Synth.Flow.default
      (Workload.Rand_design.generate ~seed)
  done;
  check "pctrl auto uncached" Synth.Flow.default
    (Pctrl.Controller.auto_design Pctrl.Controller.Uncached);
  check "pctrl manual uncached" Experiments.Exp_common.annotated_flow
    (Pctrl.Controller.manual_design Pctrl.Controller.Uncached);
  (* The corpus exercises both branches, including designs whose second
     iteration still changes the graph, so a skip taken too eagerly
     would fail the equality above. *)
  Alcotest.(check bool) "some fixpoints" true (!fixpoints > 0);
  Alcotest.(check bool) "some second iterations change the graph" true
    (!second_changed > 0)

(* --------------------------------------------------------------- symbolic *)

(* Golden fingerprint of every BDD-backed check: verdicts of the [Bdd]
   equivalence engine, Reach value sets, Annot_check results and an exact
   structural digest of Stateprop's output. Any change to variable
   numbering, budgets or fixpoint shape shows up as a diff against
   test/golden/symbolic.txt. *)

let symbolic_fingerprint () =
  let b = Buffer.create 8192 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let bdd g g' =
    match Synth.Equiv.run (Synth.Equiv.Bdd { max_vars = 40 }) g g' with
    | Synth.Equiv.Proved -> "equivalent"
    | Synth.Equiv.Refuted c -> "counterexample " ^ c.first.output
    | Synth.Equiv.Undecided r -> "gave up: " ^ r
  in
  (* Seeds 0 to 60 together cover all verdicts, both give-up reasons
     included. *)
  List.iter
    (fun seed ->
      let low =
        (Synth.Lower.run (Workload.Rand_design.generate ~seed)).Synth.Lower.aig
      in
      let swept = Synth.Sweep.run low in
      let mutant = Aig_util.invert_first_po swept in
      line "design %d run sweep: %s" seed (bdd low swept);
      line "design %d run mutant: %s" seed (bdd low mutant))
    (List.init 61 Fun.id);
  let annot_result = function
    | Synth.Annot_check.Proved -> "proved"
    | Synth.Annot_check.Refuted r -> "refuted: " ^ r
    | Synth.Annot_check.Unproved r -> "unproved: " ^ r
  in
  let annotated name (low : Synth.Lower.t) =
    let g = low.Synth.Lower.aig in
    let annots = Synth.Annots.extract low in
    List.iter
      (fun (a : Synth.Annots.t) ->
        line "%s annot %s: %s" name a.Synth.Annots.base
          (annot_result (Synth.Annot_check.inductive g a)))
      annots;
    line "%s stateprop: %s" name
      (Aig_util.structural_digest (Synth.Stateprop.run ~annots g));
    let swept = Synth.Sweep.run g in
    let relocated = List.filter_map (Synth.Annots.relocate swept) annots in
    line "%s swept stateprop: %s" name
      (Aig_util.structural_digest (Synth.Stateprop.run ~annots:relocated swept))
  in
  let reach name g prefix =
    match Reach.latch_group g ~prefix with
    | None -> line "%s reach %s: no group" name prefix
    | Some group ->
      line "%s reach %s: %s" name prefix
        (match Reach.reachable_values g ~group with
         | None -> "none"
         | Some values ->
           String.concat " "
             (List.map string_of_int
                (List.sort compare (List.map Bitvec.to_int values))))
  in
  List.iter
    (fun (seed, m, n, s) ->
      let fsm =
        Workload.Rand_fsm.generate ~seed ~num_inputs:m ~num_outputs:n
          ~num_states:s
      in
      let name = Printf.sprintf "fsm %d/%d/%d/%d" seed m n s in
      let low =
        Synth.Lower.run
          (Synth.Partial_eval.bind_tables
             (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
             (Core.Fsm_ir.config_bindings fsm))
      in
      reach name low.Synth.Lower.aig "state";
      annotated name low)
    [ (0, 2, 2, 2); (1, 2, 8, 3); (2, 2, 3, 6); (3, 8, 2, 8); (4, 2, 4, 9);
      (5, 8, 8, 16); (6, 2, 16, 17); (7, 8, 16, 17) ];
  List.iter
    (fun n ->
      let name = Printf.sprintf "onehot %d" n in
      let low = Synth.Lower.run (onehot_generic n) in
      reach name low.Synth.Lower.aig "y";
      annotated name low)
    [ 2; 4; 8; 16; 32; 64 ];
  (* PCtrl's Manual annotations: wide, some Unproved on their own. *)
  annotated "pctrl manual"
    (Synth.Lower.run (Pctrl.Controller.manual_design Pctrl.Controller.Uncached));
  Buffer.contents b

(* An n-bit up-counter from 0: every value is reachable, the last one
   after 2^n - 1 steps. Returns its graph and latch nodes, LSB first. *)
let counter_aig n =
  let g = Aig.create () in
  let qs =
    List.init n (fun i ->
        Aig.latch g (Printf.sprintf "q[%d]" i) ~init:false
          ~reset:Rtl.Design.No_reset ~is_config:false)
  in
  ignore
    (List.fold_left
       (fun carry q ->
         Aig.set_next g q (Aig.xor_ g q carry);
         Aig.and_ g q carry)
       Aig.true_ qs);
  Aig.po g "msb" (List.nth qs (n - 1));
  (g, Array.of_list (List.map Aig.node_of_lit qs))

let test_symbolic_vars () =
  let vars = Synth.Symbolic.Vars.create ~max_vars:5 ~first:2 [| "a"; "b" |] in
  let var = Synth.Symbolic.Vars.var vars in
  Alcotest.(check (list int)) "bound, then fresh from first" [ 0; 1; 2; 3; 4 ]
    (List.map var [ "a"; "b"; "x"; "y"; "z" ]);
  Alcotest.(check bool) "allocating variable max_vars overflows" true
    (match var "w" with
     | _ -> false
     | exception Synth.Symbolic.Overflow -> true);
  Alcotest.(check int) "known keys still resolve" 3 (var "y");
  Alcotest.(check (list int)) "fresh" [ 2; 3; 4 ] (Synth.Symbolic.Vars.fresh vars);
  let over = Synth.Symbolic.Vars.create ~max_vars:1 ~first:3 [| 'a'; 'b'; 'c' |] in
  Alcotest.(check int) "bound keys ignore the cap" 2
    (Synth.Symbolic.Vars.var over 'c');
  (* The converter numbers an AND's second fanin cone first. *)
  let g = Aig.create () in
  let x = Aig.and_ g (Aig.pi g "a") (Aig.pi g "b") in
  let vars = Synth.Symbolic.Vars.create ~max_vars:8 ~first:0 [||] in
  ignore
    (Synth.Symbolic.converter (Bdd.make_man ()) ~max_bdd:8
       ~leaf:(Synth.Symbolic.Vars.var vars) g x);
  let f0, f1 = Aig.fanins g (Aig.node_of_lit x) in
  Alcotest.(check (list int)) "f1 before f0" [ 0; 1 ]
    (List.map
       (fun l -> Synth.Symbolic.Vars.var vars (Aig.node_of_lit l))
       [ f1; f0 ])

let test_symbolic_overflow_sticks () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and c = Aig.pi g "c" in
  let d = Aig.pi g "d" in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  let above = Aig.and_ g abc d in
  let overflows lit x =
    match lit x with _ -> false | exception Synth.Symbolic.Overflow -> true
  in
  (* Node budget: a two-variable AND fits in 2 nodes, three do not. *)
  let man = Bdd.make_man () in
  let lit =
    Synth.Symbolic.converter man ~max_bdd:2 ~leaf:(fun n -> n) g
  in
  Alcotest.(check bool) "within budget" false (overflows lit ab);
  Alcotest.(check bool) "over budget" true (overflows lit abc);
  Alcotest.(check bool) "again" true (overflows lit abc);
  Alcotest.(check bool) "AND above" true (overflows lit above);
  Alcotest.(check bool) "complement too" true (overflows lit (Aig.not_ abc));
  (* A leaf that overflows only once: its dependents must not be rebuilt. *)
  let first = ref true in
  let leaf n =
    if n = Aig.node_of_lit a && !first then begin
      first := false;
      raise Synth.Symbolic.Overflow
    end;
    n
  in
  let lit = Synth.Symbolic.converter (Bdd.make_man ()) ~max_bdd:100 ~leaf g in
  Alcotest.(check bool) "leaf overflow" true (overflows lit ab);
  Alcotest.(check bool) "remembered at the leaf" true (overflows lit a);
  Alcotest.(check bool) "remembered above" true (overflows lit above);
  Alcotest.(check bool) "other cones unaffected" false
    (overflows lit (Aig.and_ g c d))

let test_symbolic_counter_reach () =
  List.iter
    (fun n ->
      let g, qs = counter_aig n in
      let man = Bdd.make_man () in
      let vars = Synth.Symbolic.Vars.create ~max_vars:64 ~first:(2 * n) qs in
      let lit =
        Synth.Symbolic.converter man ~max_bdd:1000
          ~leaf:(Synth.Symbolic.Vars.var vars) g
      in
      let next = Array.map (fun q -> lit (Aig.latch_next g q)) qs in
      let m =
        Synth.Symbolic.machine man ~max_bdd:1000 ~next
          ~init:(Array.make n false) ~inputs:(Synth.Symbolic.Vars.fresh vars)
      in
      let r, steps = Synth.Symbolic.reach ~max_iters:1000 m in
      let states = 1 lsl n in
      Alcotest.(check (float 0.)) (Printf.sprintf "%d-bit: all states" n)
        (float_of_int states) (Bdd.sat_count r ~nvars:n);
      Alcotest.(check int) (Printf.sprintf "%d-bit: steps" n) (states - 1) steps;
      Alcotest.(check bool) (Printf.sprintf "%d-bit: iteration cap" n) true
        (match Synth.Symbolic.reach ~max_iters:(states - 2) m with
         | _ -> false
         | exception Synth.Symbolic.Overflow -> true))
    [ 1; 3; 5 ]

(* Oracle for [Symbolic.reach]: one monolithic relation with next state
   [k+i] ordered after every current-state variable, conjoined with all of
   R and then quantified at each step. *)
let monolithic_reach man ~next ~init ~inputs ~visit =
  let k = Array.length next in
  let conj f a =
    snd
      (Array.fold_left
         (fun (i, acc) x -> (i + 1, Bdd.and_ acc (f i x)))
         (0, Bdd.one man) a)
  in
  let trans = conj (fun i f -> Bdd.iff (Bdd.var man (k + i)) f) next in
  let init = conj (fun i b -> if b then Bdd.var man i else Bdd.nvar man i) init in
  let quantified = List.init k Fun.id @ inputs in
  let image r =
    Bdd.rename (Bdd.exists quantified (Bdd.and_ trans r)) (fun v -> v - k)
  in
  let rec go i r =
    visit r;
    let r' = Bdd.or_ r (image r) in
    if Bdd.equal r r' then (r, i) else go (i + 1) r'
  in
  go 0 init

(* A random machine: 1 to 8 state bits (variables 0..k-1) and 0 to 3
   inputs (from 2k), each next-state function a random formula over them. *)
let random_machine man rng =
  let k = 1 + Workload.Rng.int rng 8 in
  let inputs = List.init (Workload.Rng.int rng 4) (fun j -> (2 * k) + j) in
  let leaves = List.init k Fun.id @ inputs in
  let rec fn depth =
    if depth = 0 || Workload.Rng.int rng 4 = 0 then
      let v = Workload.Rng.pick rng leaves in
      if Workload.Rng.bool rng then Bdd.var man v else Bdd.nvar man v
    else
      let a = fn (depth - 1) in
      let b = fn (depth - 1) in
      match Workload.Rng.int rng 3 with
      | 0 -> Bdd.and_ a b
      | 1 -> Bdd.or_ a b
      | _ -> Bdd.xor a b
  in
  let next = Array.init k (fun _ -> fn 4) in
  let init = Array.init k (fun _ -> Workload.Rng.bool rng) in
  (next, init, inputs)

let prop_symbolic_oracle =
  Prop.test ~iters:300 ~seed:9000 "partitioned image vs monolithic"
    (Prop.int 1_000_000) (fun seed ->
      let man = Bdd.make_man () in
      let next, init, inputs = random_machine man (Workload.Rng.make seed) in
      let seen = ref [] and seen' = ref [] in
      let r, d =
        monolithic_reach man ~next ~init ~inputs ~visit:(fun r -> seen := r :: !seen)
      in
      let m = Synth.Symbolic.machine man ~max_bdd:100_000 ~next ~init ~inputs in
      let r', d' =
        Synth.Symbolic.reach ~visit:(fun r -> seen' := r :: !seen') ~max_iters:1000 m
      in
      Bdd.equal r r' && d = d' && List.equal Bdd.equal !seen !seen')

(* The budget applies to every partial product of an image step; the
   initial state is visited before the relation is built. *)
let test_symbolic_image_overflow () =
  let n = 5 in
  let g, qs = counter_aig n in
  let man = Bdd.make_man () in
  let vars = Synth.Symbolic.Vars.create ~max_vars:64 ~first:(2 * n) qs in
  let lit =
    Synth.Symbolic.converter man ~max_bdd:1000 ~leaf:(Synth.Symbolic.Vars.var vars) g
  in
  let next = Array.map (fun q -> lit (Aig.latch_next g q)) qs in
  let m =
    Synth.Symbolic.machine man ~max_bdd:4 ~next ~init:(Array.make n false)
      ~inputs:(Synth.Symbolic.Vars.fresh vars)
  in
  let overflow = Obs.Metrics.counter "synth.symbolic.overflow" in
  Obs.reset ();
  Obs.set_enabled true;
  let visits = ref 0 in
  let raised =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        match Synth.Symbolic.reach ~visit:(fun _ -> incr visits) ~max_iters:100 m with
        | _ -> false
        | exception Synth.Symbolic.Overflow -> true)
  in
  Alcotest.(check bool) "image over budget raises" true raised;
  Alcotest.(check int) "initial state visited first" 1 !visits;
  Alcotest.(check int) "overflow counted" 1 (Obs.Metrics.counter_value overflow);
  Obs.reset ()

let test_symbolic_golden () = Golden.check "symbolic.txt" (symbolic_fingerprint ())

(* ----------------------------------------------------------------- passes *)

(* Golden structural digest of every rebuilding pass's output on the
   lowered graph (stateprop and collapse on the swept graph, with the
   design's annotations relocated onto it), and of the whole flow under
   the figures' three configurations. A pass that creates the same nodes
   in another order changes a digest here even when no area moves. PCtrl
   runs the default flow only: the single passes cost 12-57 s per PCtrl
   design. *)

let passes_fingerprint () =
  let b = Buffer.create 16384 in
  let row name what g =
    Printf.bprintf b "%s %s: %s\n" name what (Aig_util.structural_digest g)
  in
  let flow name (fname, options) d =
    row name ("flow " ^ fname) (Synth.Flow.compile ~options lib d).Synth.Flow.aig
  in
  let flows =
    Experiments.Exp_common.
      [ ("default", default_flow); ("annotated", annotated_flow);
        ("retimed", retimed_flow) ]
  in
  let all name d =
    let low = Synth.Lower.run d in
    let g = low.Synth.Lower.aig in
    let swept = Synth.Sweep.run g in
    let annots =
      List.filter_map (Synth.Annots.relocate swept) (Synth.Annots.extract low)
    in
    row name "sweep" swept;
    row name "sweep sat" (Synth.Sweep.run ~sat:true g);
    row name "retime" (Synth.Retime.run g);
    row name "stateprop" (Synth.Stateprop.run ~annots swept);
    row name "collapse" (Synth.Collapse.run ~annots swept);
    List.iter (fun f -> flow name f d) flows
  in
  for seed = 0 to 30 do
    all (Printf.sprintf "design %d" seed) (Workload.Rand_design.generate ~seed)
  done;
  List.iter
    (fun n ->
      List.iter
        (fun (sname, style) ->
          all (Printf.sprintf "onehot generic %d %s" n sname)
            (Experiments.Onehot_design.generic ~n ~style);
          all (Printf.sprintf "onehot direct %d %s" n sname)
            (Experiments.Onehot_design.direct ~n ~style))
        Experiments.Onehot_design.all_styles)
    [ 2; 8; 32 ];
  List.iter
    (fun (seed, m, n, s) ->
      let fsm =
        Workload.Rand_fsm.generate ~seed ~num_inputs:m ~num_outputs:n
          ~num_states:s
      in
      all (Printf.sprintf "fsm %d/%d/%d/%d" seed m n s)
        (Synth.Partial_eval.bind_tables
           (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
           (Core.Fsm_ir.config_bindings fsm)))
    [ (0, 2, 2, 2); (2, 2, 3, 6); (5, 8, 8, 16); (7, 8, 16, 17) ];
  List.iter
    (fun (mname, mode) ->
      flow ("pctrl auto " ^ mname) (List.hd flows)
        (Pctrl.Controller.auto_design mode))
    [ ("cached", Pctrl.Controller.Cached); ("uncached", Pctrl.Controller.Uncached) ];
  Buffer.contents b

let test_passes_golden () = Golden.check "passes.txt" (passes_fingerprint ())

let () =
  Alcotest.run "synth"
    [
      ( "lower",
        [
          Alcotest.test_case "matches RTL eval" `Quick test_lower_matches_eval;
          Alcotest.test_case "rom folds to logic" `Quick test_lower_rom_folds;
          Alcotest.test_case "config becomes latches" `Quick test_lower_config_latches;
          prop_rtl_vs_aig_matches_oracle;
          Alcotest.test_case "unknown AIG input raises" `Quick
            test_rtl_vs_aig_unknown_input;
        ] );
      ( "collapse",
        [
          Alcotest.test_case "preserves behaviour" `Quick test_collapse_preserves;
          Alcotest.test_case "exploits value-set DCs" `Quick test_collapse_with_constraints;
          Alcotest.test_case "shared memo = fresh memo" `Quick
            test_collapse_shared_memo;
          prop_bounded_cone;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "constant latch" `Quick test_sweep_constant_latch;
          Alcotest.test_case "duplicate latches" `Quick test_sweep_merges_duplicates;
          Alcotest.test_case "config exempt" `Quick test_sweep_keeps_config;
          Alcotest.test_case "signature-filtered fixpoint" `Quick
            test_sweep_simfilter_two_latches;
        ] );
      ( "simsig",
        [
          Alcotest.test_case "latch constancy filter" `Quick
            test_simsig_latch_filter;
        ] );
      ( "retime",
        [
          Alcotest.test_case "preserves and merges" `Quick test_retime_preserves;
          Alcotest.test_case "refuses reset flops" `Quick test_retime_refuses_reset;
        ] );
      ( "stateprop",
        [
          Alcotest.test_case "folds one-hot consumer" `Quick test_stateprop_folds_onehot;
          Alcotest.test_case "width cap" `Quick test_stateprop_width_cap;
        ] );
      ( "map",
        [
          Alcotest.test_case "xor and mux cells" `Quick test_map_cells;
          Alcotest.test_case "flop kinds" `Quick test_map_flop_kinds;
          Alcotest.test_case "inverter sharing" `Quick test_map_inverter_sharing;
        ] );
      ("reach", [ Alcotest.test_case "matches IR reachability" `Quick test_reach_matches_ir ]);
      ( "symbolic",
        [
          Alcotest.test_case "variable numbering" `Quick test_symbolic_vars;
          Alcotest.test_case "overflow is remembered" `Quick
            test_symbolic_overflow_sticks;
          Alcotest.test_case "counter reach" `Quick test_symbolic_counter_reach;
          prop_symbolic_oracle;
          Alcotest.test_case "image over budget" `Quick test_symbolic_image_overflow;
          Alcotest.test_case "golden fingerprint" `Quick test_symbolic_golden;
        ] );
      ( "flow",
        [
          Alcotest.test_case "self-check and determinism" `Quick
            test_flow_checked_and_idempotence;
          Alcotest.test_case "fixpoint skip is transparent" `Quick
            test_flow_fixpoint_skip_transparent;
        ] );
      ("passes", [ Alcotest.test_case "golden digests" `Quick test_passes_golden ]);
    ]
