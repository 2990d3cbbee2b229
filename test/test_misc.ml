(* Coverage for the smaller subsystems: cells, report tables, power
   estimation and the gate-level netlist writer. *)

let lib = Cells.Library.vt90

let test_cell_truth_tables () =
  let check name inputs expected =
    let c = Cells.Library.find lib name in
    List.iteri
      (fun assignment exp ->
        Alcotest.(check bool)
          (Printf.sprintf "%s(%d)" name assignment)
          exp
          (Cells.Cell.eval_comb c assignment))
      inputs;
    ignore expected
  in
  check "INV" [ true; false ] ();
  check "NAND2" [ true; true; true; false ] ();
  check "NOR2" [ true; false; false; false ] ();
  check "XOR2" [ false; true; true; false ] ();
  check "AND2" [ false; false; false; true ] ();
  (* MUX2: pins (a = s0-branch, b = s1-branch, s). *)
  let mux = Cells.Library.find lib "MUX2" in
  List.iter
    (fun (a, b, s) ->
      let idx = (if a then 1 else 0) lor (if b then 2 else 0) lor (if s then 4 else 0) in
      Alcotest.(check bool)
        (Printf.sprintf "mux a=%b b=%b s=%b" a b s)
        (if s then b else a)
        (Cells.Cell.eval_comb mux idx))
    [ (false, true, false); (false, true, true); (true, false, false);
      (true, false, true) ];
  (* AOI21 = ~((a & b) | c). *)
  let aoi = Cells.Library.find lib "AOI21" in
  for idx = 0 to 7 do
    let a = idx land 1 = 1 and b = idx lsr 1 land 1 = 1 and c = idx lsr 2 land 1 = 1 in
    Alcotest.(check bool)
      (Printf.sprintf "aoi %d" idx)
      (not ((a && b) || c))
      (Cells.Cell.eval_comb aoi idx)
  done;
  (* OAI21 = ~((a | b) & c). *)
  let oai = Cells.Library.find lib "OAI21" in
  for idx = 0 to 7 do
    let a = idx land 1 = 1 and b = idx lsr 1 land 1 = 1 and c = idx lsr 2 land 1 = 1 in
    Alcotest.(check bool)
      (Printf.sprintf "oai %d" idx)
      (not ((a || b) && c))
      (Cells.Cell.eval_comb oai idx)
  done

let test_cell_validation () =
  (match Cells.Cell.make_comb "BAD" ~arity:5 ~table:0 ~area:1.0 ~delay:1.0 with
   | _ -> Alcotest.fail "arity 5 accepted"
   | exception Invalid_argument _ -> ());
  (match Cells.Cell.make_comb "BAD" ~arity:1 ~table:7 ~area:1.0 ~delay:1.0 with
   | _ -> Alcotest.fail "overwide table accepted"
   | exception Invalid_argument _ -> ());
  let dff = Cells.Library.flop lib Rtl.Design.No_reset in
  Alcotest.(check bool) "flop is flop" true (Cells.Cell.is_flop dff);
  (match Cells.Cell.eval_comb dff 0 with
   | _ -> Alcotest.fail "flop eval accepted"
   | exception Invalid_argument _ -> ())

let test_library_order () =
  (* Flops exist for all three reset styles, with distinct costs. *)
  let a r = (Cells.Library.flop lib r).Cells.Cell.area in
  Alcotest.(check bool) "dff < sdff < adff" true
    (a Rtl.Design.No_reset < a Rtl.Design.Sync_reset
     && a Rtl.Design.Sync_reset < a Rtl.Design.Async_reset)

let test_report_table () =
  let text =
    Report.Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ]; [ "b" ] ]
  in
  let lines = String.split_on_char '\n' text in
  (match lines with
   | header :: sep :: rows ->
     Alcotest.(check bool) "aligned" true
       (String.length header = String.length sep);
     List.iter
       (fun row ->
         if row <> "" then
           Alcotest.(check int) "row width" (String.length header)
             (String.length row))
       rows
   | _ -> Alcotest.fail "too short");
  Alcotest.(check string) "area format" "12.3" (Report.Table.fmt_area 12.345);
  Alcotest.(check string) "ratio format" "0.67" (Report.Table.fmt_ratio (2.0 /. 3.0))

let test_power_sanity () =
  (* A free-running counter toggles; a held constant register does not. *)
  let counter =
    let b = Rtl.Builder.create "c" in
    let q = Rtl.Builder.reg_declare b "q" ~width:4 in
    Rtl.Builder.reg_connect b "q" (Rtl.Expr.add q (Rtl.Expr.of_int ~width:4 1));
    Rtl.Builder.output b "o" q;
    Rtl.Builder.finish b
  in
  let still =
    let b = Rtl.Builder.create "s" in
    let x = Rtl.Builder.input b "x" 1 in
    ignore x;
    let q = Rtl.Builder.reg_declare b "q" ~width:4 in
    Rtl.Builder.reg_connect b "q" q;
    Rtl.Builder.output b "o" q;
    Rtl.Builder.finish b
  in
  let power d =
    let g = (Synth.Lower.run d).Synth.Lower.aig in
    let report, instances = Synth.Map.run_full lib g in
    Synth.Power.estimate lib g report instances
  in
  let pc = power counter and ps = power still in
  Alcotest.(check bool) "counter toggles" true (pc.Synth.Power.toggles_per_cycle > 1.0);
  Alcotest.(check bool) "held register silent" true
    (ps.Synth.Power.dynamic = 0.0);
  Alcotest.(check bool) "leakage proportional to area" true
    (ps.Synth.Power.leakage > 0.0)

let test_power_config_programs () =
  (* Programming the config memory wakes the flexible design up. *)
  let tt = Workload.Rand_table.generate ~seed:5 ~depth:16 ~width:8 in
  let d = Core.Truth_table.to_flexible_rtl tt in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let report, instances = Synth.Map.run_full lib g in
  let empty = Synth.Power.estimate lib g report instances in
  let programmed =
    Synth.Power.estimate ~config:[ Core.Truth_table.config_binding tt ] lib g
      report instances
  in
  Alcotest.(check bool)
    (Printf.sprintf "programmed (%.1f) > empty (%.1f)"
       programmed.Synth.Power.dynamic empty.Synth.Power.dynamic)
    true
    (programmed.Synth.Power.dynamic > empty.Synth.Power.dynamic)

(* The hashtable estimator [Synth.Power.estimate] replaced, kept as an
   exact oracle: the same draws, the same toggle rule and the same float
   summation order, so the two must agree bit for bit. *)
let reference_estimate ?(config = []) lib g =
  let cycles = Synth.Power.cycles in
  let report, instances = Synth.Map.run_full lib g in
  let rng = Random.State.make [| 0x70777; 1 |] in
  let state = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let _, init, _, _ = Aig.latch_info g n in
      Hashtbl.replace state n init)
    (Aig.latches g);
  List.iter
    (fun (tname, contents) ->
      Array.iteri
        (fun e word ->
          Bitvec.fold_bits
            (fun b v () ->
              match Aig.find_latch g (Printf.sprintf "%s[%d][%d]" tname e b) with
              | Some n -> Hashtbl.replace state n v
              | None -> ())
            word ())
        contents)
    config;
  let prev = Hashtbl.create 256 in
  let weighted = ref 0.0 in
  let toggles = ref 0 in
  let observe n v weight =
    (match Hashtbl.find_opt prev n with
     | Some old when old <> v ->
       incr toggles;
       weighted := !weighted +. weight
     | Some _ -> ()
     | None -> ());
    Hashtbl.replace prev n v
  in
  for _cycle = 1 to cycles do
    let inputs = Hashtbl.create 16 in
    List.iter
      (fun n -> Hashtbl.replace inputs n (Random.State.bool rng))
      (Aig.pis g);
    let read =
      Aig.eval_all g ~pi:(Hashtbl.find inputs) ~latch:(Hashtbl.find state)
    in
    Hashtbl.iter
      (fun n (inst : Synth.Map.instance) ->
        observe n
          (read (Aig.lit_of_node n false))
          inst.Synth.Map.inst_cell.Cells.Cell.area)
      instances;
    List.iter
      (fun n ->
        let _, _, reset, is_config = Aig.latch_info g n in
        let weight =
          if is_config then 0.0
          else (Cells.Library.flop lib reset).Cells.Cell.area
        in
        observe n (Hashtbl.find state n) weight)
      (Aig.latches g);
    List.iter
      (fun n -> Hashtbl.replace state n (read (Aig.latch_next g n)))
      (Aig.latches g)
  done;
  {
    Synth.Power.dynamic = !weighted /. float_of_int cycles;
    leakage = 0.01 *. Synth.Map.total report;
    toggles_per_cycle = float_of_int !toggles /. float_of_int cycles;
  }

(* [mapped] is the netlist with its mapping: a compile's stored one, or
   [Map.run_full]'s for a raw AIG. The oracle always maps afresh. *)
let check_power_oracle ?config name (g, report, instances) =
  let got = Synth.Power.estimate ?config lib g report instances in
  let want = reference_estimate ?config lib g in
  let bits what f =
    Alcotest.(check int64) (name ^ " " ^ what)
      (Int64.bits_of_float (f want)) (Int64.bits_of_float (f got))
  in
  bits "dynamic" (fun e -> e.Synth.Power.dynamic);
  bits "leakage" (fun e -> e.Synth.Power.leakage);
  bits "toggles/cycle" (fun e -> e.Synth.Power.toggles_per_cycle)

let test_power_matches_reference () =
  let tt = Workload.Rand_table.generate ~seed:5 ~depth:16 ~width:8 in
  let raw g =
    let report, instances = Synth.Map.run_full lib g in
    (g, report, instances)
  in
  let flexible =
    raw (Synth.Lower.run (Core.Truth_table.to_flexible_rtl tt)).Synth.Lower.aig
  in
  check_power_oracle "table" flexible;
  check_power_oracle ~config:[ Core.Truth_table.config_binding tt ]
    "programmed table" flexible;
  let compiled ?options d =
    let r = Synth.Flow.compile ?options lib d in
    (r.Synth.Flow.aig, r.Synth.Flow.report, r.Synth.Flow.instances)
  in
  check_power_oracle "pctrl auto uncached"
    (compiled (Pctrl.Controller.auto_design Pctrl.Controller.Uncached));
  check_power_oracle "pctrl manual uncached"
    (compiled ~options:Experiments.Exp_common.annotated_flow
       (Pctrl.Controller.manual_design Pctrl.Controller.Uncached));
  check_power_oracle
    ~config:(Pctrl.Controller.bindings Pctrl.Controller.Uncached)
    "pctrl full programmed"
    (compiled (Pctrl.Controller.full_design ()));
  for seed = 0 to 19 do
    let d = Workload.Rand_design.generate ~seed in
    check_power_oracle (Printf.sprintf "rand %d lowered" seed)
      (raw (Synth.Lower.run d).Synth.Lower.aig);
    check_power_oracle (Printf.sprintf "rand %d compiled" seed)
      (compiled d)
  done

let test_netlist_structure () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:1 ~num_inputs:2 ~num_outputs:3 ~num_states:4
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let r = Synth.Flow.compile lib d in
  let text =
    Synth.Netlist.emit lib ~name:"fsm4" r.Synth.Flow.aig r.Synth.Flow.instances
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (Text.contains text fragment))
    [ "module fsm4"; "input clk"; "SDFF"; ".CLK(clk)"; "endmodule" ];
  (* No dangling markers. *)
  Alcotest.(check bool) "name substituted" false (Text.contains text "%NAME%")

let test_flow_report_consistency () =
  (* comb_area equals the summed area of the combinational cells in the
     count list; seq_area likewise. *)
  let d = Workload.Rand_design.generate ~seed:17 in
  let r = (Synth.Flow.compile lib d).Synth.Flow.report in
  let area_of (name, k) =
    float_of_int k *. (Cells.Library.find lib name).Cells.Cell.area
  in
  let comb, seq =
    List.fold_left
      (fun (c, s) ((name, _) as entry) ->
        if Cells.Cell.is_flop (Cells.Library.find lib name) then
          (c, s +. area_of entry)
        else (c +. area_of entry, s))
      (0.0, 0.0) r.Synth.Map.cell_counts
  in
  Alcotest.(check (float 0.01)) "comb area" comb r.Synth.Map.comb_area;
  Alcotest.(check (float 0.01)) "seq area" seq r.Synth.Map.seq_area

(* ---------------------------------------------------------------- liberty *)

let test_liberty_roundtrip () =
  let text = Cells.Liberty.print lib in
  let lib' = Cells.Liberty.parse text in
  Alcotest.(check int) "cell count"
    (List.length lib.Cells.Library.cells)
    (List.length lib'.Cells.Library.cells);
  List.iter
    (fun (c : Cells.Cell.t) ->
      let c' = Cells.Library.find lib' c.cname in
      Alcotest.(check (float 1e-9)) (c.cname ^ " area") c.area c'.Cells.Cell.area;
      match c.func, c'.Cells.Cell.func with
      | Cells.Cell.Comb { arity; table }, Cells.Cell.Comb { arity = a'; table = t' } ->
        Alcotest.(check int) (c.cname ^ " arity") arity a';
        Alcotest.(check int) (c.cname ^ " table") table t'
      | Cells.Cell.Flop r, Cells.Cell.Flop r' ->
        Alcotest.(check bool) (c.cname ^ " reset") true (r = r')
      | _, _ -> Alcotest.failf "%s changed kind" c.cname)
    lib.Cells.Library.cells;
  Alcotest.(check bool) "roundtripped library mappable" true
    (Cells.Liberty.check_mappable lib' = Ok ())

let test_liberty_functions () =
  let l =
    Cells.Liberty.parse
      {|library (t) {
          cell (G1) { function : "!(A*B)+C"; area : 1; delay : 0.1; }
          cell (G2) { function : "A^B^C"; area : 1; delay : 0.1; }
        }|}
  in
  let g1 = Cells.Library.find l "G1" in
  for idx = 0 to 7 do
    let a = idx land 1 = 1 and b = idx lsr 1 land 1 = 1 and c = idx lsr 2 land 1 = 1 in
    Alcotest.(check bool) "g1" ((not (a && b)) || c) (Cells.Cell.eval_comb g1 idx);
    Alcotest.(check bool) "g2"
      ((a <> b) <> c)
      (Cells.Cell.eval_comb (Cells.Library.find l "G2") idx)
  done

let test_liberty_scaled_flow () =
  (* Halving every cell area must halve the reported design area. *)
  let halved =
    {
      Cells.Library.lib_name = "vt45";
      cells =
        List.map
          (fun (c : Cells.Cell.t) -> { c with Cells.Cell.area = c.area /. 2.0 })
          lib.Cells.Library.cells;
    }
  in
  let halved = Cells.Liberty.parse (Cells.Liberty.print halved) in
  let d = Workload.Rand_design.generate ~seed:23 in
  let a90 = Synth.Map.total (Synth.Flow.compile lib d).Synth.Flow.report in
  let a45 = Synth.Map.total (Synth.Flow.compile halved d).Synth.Flow.report in
  Alcotest.(check (float 0.01)) "half the area" (a90 /. 2.0) a45

let test_liberty_errors () =
  let bad text =
    match Cells.Liberty.parse text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Cells.Liberty.Parse_error _ -> ()
  in
  bad "not a library";
  bad "library (x) { cell (Y) { area : 1; } }";
  bad "library (x) { cell (Y) { function : \"A*\"; area : 1; delay : 1; } }";
  bad "library (x) { cell (Y) { function : \"E\"; area : 1; delay : 1; } }";
  Alcotest.(check bool) "missing cells detected" true
    (match Cells.Liberty.check_mappable { Cells.Library.lib_name = "e"; cells = [] } with
     | Error _ -> true
     | Ok () -> false)

let () =
  Alcotest.run "misc"
    [
      ( "cells",
        [
          Alcotest.test_case "truth tables" `Quick test_cell_truth_tables;
          Alcotest.test_case "validation" `Quick test_cell_validation;
          Alcotest.test_case "library ordering" `Quick test_library_order;
        ] );
      ("report", [ Alcotest.test_case "table rendering" `Quick test_report_table ]);
      ( "power",
        [
          Alcotest.test_case "sanity" `Quick test_power_sanity;
          Alcotest.test_case "config programming" `Quick test_power_config_programs;
          Alcotest.test_case "matches hashtable reference" `Quick
            test_power_matches_reference;
        ] );
      ( "netlist",
        [ Alcotest.test_case "structure" `Quick test_netlist_structure ] );
      ( "flow",
        [ Alcotest.test_case "report consistency" `Quick test_flow_report_consistency ] );
      ( "liberty",
        [
          Alcotest.test_case "roundtrip" `Quick test_liberty_roundtrip;
          Alcotest.test_case "functions" `Quick test_liberty_functions;
          Alcotest.test_case "scaled library flow" `Quick test_liberty_scaled_flow;
          Alcotest.test_case "errors" `Quick test_liberty_errors;
        ] );
    ]
