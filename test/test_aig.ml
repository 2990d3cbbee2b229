let lit = Alcotest.testable (Fmt.of_to_string (fun (l : Aig.lit) -> string_of_int (l :> int)))
    (fun a b -> a = b)

let test_strash_rules () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" in
  Alcotest.check lit "and(x,0)=0" Aig.false_ (Aig.and_ g a Aig.false_);
  Alcotest.check lit "and(x,1)=x" a (Aig.and_ g a Aig.true_);
  Alcotest.check lit "and(x,x)=x" a (Aig.and_ g a a);
  Alcotest.check lit "and(x,~x)=0" Aig.false_ (Aig.and_ g a (Aig.not_ a));
  let n1 = Aig.and_ g a b in
  let n2 = Aig.and_ g b a in
  Alcotest.check lit "commutative sharing" n1 n2;
  Alcotest.(check int) "single node" 1 (Aig.num_ands g)

let test_gates_semantics () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and c = Aig.pi g "c" in
  let xor_ab = Aig.xor_ g a b in
  let mux = Aig.mux_ g a b c in
  let or_ab = Aig.or_ g a b in
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (va, vb) ->
      List.iter
        (fun vc ->
          let pi n =
            match Aig.pi_name g n with
            | "a" -> va
            | "b" -> vb
            | "c" -> vc
            | _ -> assert false
          in
          let read = Aig.eval_all g ~pi ~latch:(fun _ -> false) in
          Alcotest.(check bool) "xor" (va <> vb) (read xor_ab);
          Alcotest.(check bool) "or" (va || vb) (read or_ab);
          Alcotest.(check bool) "mux" (if va then vb else vc) (read mux))
        [ false; true ])
    cases

let test_and_list_balanced () =
  let g = Aig.create () in
  let pis = List.init 16 (fun i -> Aig.pi g (Printf.sprintf "x%d" i)) in
  let all = Aig.and_list g pis in
  let levels = Aig.levels g in
  Alcotest.(check int) "log depth" 4 (levels (Aig.node_of_lit all));
  Alcotest.check lit "empty list is true" Aig.true_ (Aig.and_list g []);
  Alcotest.check lit "or of none is false" Aig.false_ (Aig.or_list g [])

let test_latches () =
  let g = Aig.create () in
  let q = Aig.latch g "q" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false in
  let d = Aig.not_ q in
  Aig.set_next g q d;
  Alcotest.(check int) "latch count" 1 (Aig.num_latches g);
  Alcotest.check lit "next" d (Aig.latch_next g (Aig.node_of_lit q));
  let name, init, reset, is_config = Aig.latch_info g (Aig.node_of_lit q) in
  Alcotest.(check string) "name" "q" name;
  Alcotest.(check bool) "init" false init;
  Alcotest.(check bool) "reset kind" true (reset = Rtl.Design.Sync_reset);
  Alcotest.(check bool) "not config" false is_config;
  Alcotest.(check bool) "find_latch" true (Aig.find_latch g "q" = Some (Aig.node_of_lit q))

let test_cone () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and c = Aig.pi g "c" in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  let leaves, nodes = Aig.cone g [ abc ] in
  Alcotest.(check int) "3 leaves" 3 (List.length leaves);
  Alcotest.(check int) "2 internal" 2 (List.length nodes);
  (* Topological: ab before abc. *)
  Alcotest.(check (list int)) "topo order"
    [ Aig.node_of_lit ab; Aig.node_of_lit abc ]
    nodes

let test_fanout () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" in
  let ab = Aig.and_ g a b in
  let x = Aig.and_ g ab (Aig.not_ a) in
  Aig.po g "x" x;
  Aig.po g "ab" ab;
  let fo = Aig.fanout_counts g in
  Alcotest.(check int) "a used twice" 2 fo.(Aig.node_of_lit a);
  Alcotest.(check int) "ab used twice" 2 fo.(Aig.node_of_lit ab)

(* A small sequential graph; each optional argument perturbs one field
   that [Aig.equal] must see. *)
let equal_fixture ?(init = false) ?(lname = "q") ?(po_name = "o")
    ?(swap_fanin = false) ?(reset = Rtl.Design.Sync_reset) ?(is_config = false)
    ?(next_inverted = false) () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" in
  let q = Aig.latch g lname ~init ~reset ~is_config in
  let ab = Aig.and_ g a (if swap_fanin then Aig.not_ b else b) in
  let x = Aig.and_ g ab q in
  Aig.set_next g q (if next_inverted then Aig.not_ x else x);
  Aig.po g po_name x;
  g

let test_equal () =
  let base = equal_fixture () in
  Alcotest.(check bool) "self" true (Aig.equal base base);
  Alcotest.(check bool) "rebuilt" true (Aig.equal base (equal_fixture ()));
  List.iter
    (fun (what, g) ->
      Alcotest.(check bool) what false (Aig.equal base g);
      Alcotest.(check bool) (what ^ " (flipped)") false (Aig.equal g base))
    [
      ("latch init", equal_fixture ~init:true ());
      ("latch name", equal_fixture ~lname:"r" ());
      ("latch reset", equal_fixture ~reset:Rtl.Design.Async_reset ());
      ("latch config flag", equal_fixture ~is_config:true ());
      ("latch next", equal_fixture ~next_inverted:true ());
      ("po name", equal_fixture ~po_name:"p" ());
      ("fanin", equal_fixture ~swap_fanin:true ());
    ];
  let extra_po = equal_fixture () in
  Aig.po extra_po "o2" Aig.true_;
  Alcotest.(check bool) "extra po" false (Aig.equal base extra_po);
  let po_lit = Aig.create () in
  let a = Aig.pi po_lit "a" in
  let other = Aig.create () in
  ignore (Aig.pi other "a");
  Aig.po po_lit "o" a;
  Aig.po other "o" (Aig.not_ a);
  Alcotest.(check bool) "po literal" false (Aig.equal po_lit other);
  let renamed = Aig.create () in
  ignore (Aig.pi renamed "b");
  Aig.po renamed "o" (Aig.not_ a);
  Alcotest.(check bool) "pi name" false (Aig.equal other renamed);
  let bigger = Aig.create () in
  ignore (Aig.pi bigger "a");
  ignore (Aig.pi bigger "c");
  Aig.po bigger "o" (Aig.not_ a);
  Alcotest.(check bool) "extra node" false (Aig.equal other bigger)

(* ------------------------------------------------------ compiled kernel *)

let test_compiled_ctz () =
  for i = 0 to Aig.Compiled.lanes - 1 do
    Alcotest.(check int) "single bit" i (Aig.Compiled.ctz (1 lsl i));
    if i > 0 then
      (* Lower bits win over higher garbage. *)
      Alcotest.(check int) "lowest of two" (i - 1)
        (Aig.Compiled.ctz ((1 lsl i) lor (1 lsl (i - 1))))
  done;
  Alcotest.(check int) "all lanes" 0 (Aig.Compiled.ctz Aig.Compiled.all_lanes);
  Alcotest.check_raises "zero word rejected"
    (Invalid_argument "Compiled.ctz: zero word") (fun () ->
      ignore (Aig.Compiled.ctz 0))

let test_compiled_toggle () =
  (* A toggling latch through the sequential stepper: every lane carries
     the same stream, so PO words are all-zeros / all-ones alternating. *)
  let g = Aig.create () in
  let q =
    Aig.latch g "q" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g q (Aig.not_ q);
  Aig.po g "q" q;
  let c = Aig.Compiled.compile g in
  Alcotest.(check int) "one latch" 1 (Aig.Compiled.num_latches c);
  let s = Aig.Compiled.sim c in
  for cycle = 0 to 5 do
    Aig.Compiled.step s;
    let expect = if cycle land 1 = 0 then 0 else Aig.Compiled.all_lanes in
    Alcotest.(check int)
      (Printf.sprintf "cycle %d" cycle)
      expect (Aig.Compiled.po s 0)
  done;
  Alcotest.(check int) "steps counted" 6 (Aig.Compiled.steps s);
  Aig.Compiled.reset s;
  Aig.Compiled.step s;
  Alcotest.(check int) "reset restarts at init" 0 (Aig.Compiled.po s 0)

let test_compiled_force () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" in
  let ab = Aig.and_ g a b in
  Aig.po g "y" ab;
  let c = Aig.Compiled.compile g in
  let s = Aig.Compiled.sim c in
  (* a=1, b=0 everywhere: y computes 0; lane 0 forced to 1, lane 1 forced
     (redundantly) to 0, every other lane sees the computed value. *)
  Aig.Compiled.add_force s ~node:(Aig.node_of_lit ab) ~set:0b01 ~clear:0b10;
  Aig.Compiled.set_pi s 0 Aig.Compiled.all_lanes;
  Aig.Compiled.set_pi s 1 0;
  Aig.Compiled.step s;
  Alcotest.(check int) "forced lanes only" 0b01 (Aig.Compiled.po s 0);
  Aig.Compiled.clear_forces s;
  Aig.Compiled.set_pi s 1 Aig.Compiled.all_lanes;
  Aig.Compiled.step s;
  Alcotest.(check int) "forces cleared" Aig.Compiled.all_lanes
    (Aig.Compiled.po s 0)

(* Packed random word: [lanes] fresh bits, 30 at a time. *)
let random_word st =
  let rec go acc k =
    if k >= Aig.Compiled.lanes then acc
    else go (acc lor (Random.State.bits st lsl k)) (k + 30)
  in
  go 0 0

(* The tentpole oracle: packed simulation of [g] agrees with the scalar
   [Aig.eval_all] interpreter on every lane of every PO word of every one
   of [cycles] cycles of random stimulus. *)
let packed_matches_eval_all ~cycles ~seed g =
  let c = Aig.Compiled.compile g in
  let st = Random.State.make [| 0xfeed; seed |] in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let tape =
    Array.init cycles (fun _ -> Array.init npis (fun _ -> random_word st))
  in
  let s = Aig.Compiled.sim c in
  let packed =
    Array.init cycles (fun cyc ->
        Array.iteri (fun i w -> Aig.Compiled.set_pi s i w) tape.(cyc);
        Aig.Compiled.step s;
        Array.init npos (Aig.Compiled.po s))
  in
  let pis = Array.of_list (Aig.pis g) in
  let pslot = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace pslot n i) pis;
  let latches = Aig.latches g in
  let pos = Array.of_list (Aig.pos g) in
  let ok = ref true in
  for lane = 0 to Aig.Compiled.lanes - 1 do
    let state = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let _, init, _, _ = Aig.latch_info g n in
        Hashtbl.replace state n init)
      latches;
    for cyc = 0 to cycles - 1 do
      let pi n = tape.(cyc).(Hashtbl.find pslot n) lsr lane land 1 = 1 in
      let read = Aig.eval_all g ~pi ~latch:(Hashtbl.find state) in
      Array.iteri
        (fun k (_, l) ->
          if packed.(cyc).(k) lsr lane land 1 = 1 <> read l then
            ok := false)
        pos;
      let next =
        List.map (fun n -> (n, read (Aig.latch_next g n))) latches
      in
      List.iter (fun (n, v) -> Hashtbl.replace state n v) next
    done
  done;
  !ok

(* Besides random lowered designs, three fixed netlists of the paper's
   workloads: the lowered Auto PCtrl (cached mode, about 26k ANDs), the
   bound 256x8 random table and the annotated, bound 16-state FSM. *)
let prop_packed_matches_eval_all =
  let name = "packed sim = eval_all on every lane" in
  Alcotest.test_case name `Quick (fun () ->
      let lower d = (Synth.Lower.run d).Synth.Lower.aig in
      let tt = Workload.Rand_table.generate ~seed:0 ~depth:256 ~width:8 in
      let fsm =
        Workload.Rand_fsm.generate ~seed:0 ~num_inputs:2 ~num_outputs:8
          ~num_states:16
      in
      List.iter
        (fun (design, d) ->
          if not (packed_matches_eval_all ~cycles:16 ~seed:0 (lower d)) then
            Alcotest.failf "%s: packed simulation disagrees on %s" name design)
        [ ("pctrl", Pctrl.Controller.auto_design Pctrl.Controller.Cached);
          ("table 256x8",
           Synth.Partial_eval.bind_tables
             (Core.Truth_table.to_flexible_rtl tt)
             [ Core.Truth_table.config_binding tt ]);
          ("fsm 16 states",
           Synth.Partial_eval.bind_tables
             (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
             (Core.Fsm_ir.config_bindings fsm)) ];
      Prop.check ~iters:40 ~name (Prop.int 100_000) (fun seed ->
          packed_matches_eval_all ~cycles:8 ~seed
            (lower (Workload.Rand_design.generate ~seed))))

let prop_strash_never_duplicates =
  (* Random construction: building the same expression twice yields the
     same literal, and the node count does not grow. *)
  Prop.test ~iters:100 "rebuilding is free" (Prop.int 10_001) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Aig.create () in
      let pis = Array.init 4 (fun i -> Aig.pi g (Printf.sprintf "x%d" i)) in
      let rec build rng depth =
        if depth = 0 then begin
          let l = pis.(Random.State.int rng 4) in
          if Random.State.bool rng then Aig.not_ l else l
        end
        else begin
          let a = build rng (depth - 1) and b = build rng (depth - 1) in
          match Random.State.int rng 3 with
          | 0 -> Aig.and_ g a b
          | 1 -> Aig.or_ g a b
          | _ -> Aig.xor_ g a b
        end
      in
      let rng_copy = Random.State.copy rng in
      let l1 = build rng 4 in
      let count1 = Aig.num_ands g in
      (* Replay the same random choices. *)
      let l2 = build rng_copy 4 in
      l1 = l2 && Aig.num_ands g = count1)

let () =
  Alcotest.run "aig"
    [
      ( "unit",
        [
          Alcotest.test_case "strash rules" `Quick test_strash_rules;
          Alcotest.test_case "gate semantics" `Quick test_gates_semantics;
          Alcotest.test_case "balanced reduction" `Quick test_and_list_balanced;
          Alcotest.test_case "latches" `Quick test_latches;
          Alcotest.test_case "cones" `Quick test_cone;
          Alcotest.test_case "fanout counts" `Quick test_fanout;
          Alcotest.test_case "structural equality" `Quick test_equal;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "ctz" `Quick test_compiled_ctz;
          Alcotest.test_case "sequential toggle" `Quick test_compiled_toggle;
          Alcotest.test_case "per-lane forces" `Quick test_compiled_force;
          prop_packed_matches_eval_all;
        ] );
      ("properties", [ prop_strash_never_duplicates ]);
    ]
