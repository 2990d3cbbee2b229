let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let e_int w v = Rtl.Expr.of_int ~width:w v

let eval_const e =
  Rtl.Expr.eval
    (fun s -> Alcotest.failf "unexpected signal %s" s.Rtl.Signal.name)
    (fun t _ -> Alcotest.failf "unexpected table %s" t)
    e

let test_expr_widths () =
  let a = e_int 4 3 and b = e_int 4 5 in
  Alcotest.(check int) "and width" 4 (Rtl.Expr.width (Rtl.Expr.and_ a b));
  Alcotest.(check int) "eq width" 1 (Rtl.Expr.width (Rtl.Expr.eq a b));
  Alcotest.(check int) "concat width" 8 (Rtl.Expr.width (Rtl.Expr.concat [ a; b ]));
  Alcotest.(check int) "slice width" 2
    (Rtl.Expr.width (Rtl.Expr.slice a ~hi:2 ~lo:1));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Expr.and_: width mismatch (4 vs 3)") (fun () ->
      ignore (Rtl.Expr.and_ a (e_int 3 0)));
  Alcotest.check_raises "mux selector"
    (Invalid_argument "Expr.mux: selector must have width 1") (fun () ->
      ignore (Rtl.Expr.mux a a b))

let test_expr_eval () =
  let check name expr expected =
    Alcotest.check bv name expected (eval_const expr)
  in
  check "add wraps" Rtl.Expr.(add (e_int 4 9) (e_int 4 9)) (Bitvec.of_int ~width:4 2);
  check "sub" Rtl.Expr.(sub (e_int 4 3) (e_int 4 5)) (Bitvec.of_int ~width:4 14);
  check "xor" Rtl.Expr.(xor (e_int 4 0b1100) (e_int 4 0b1010)) (Bitvec.of_int ~width:4 0b0110);
  check "eq true" Rtl.Expr.(eq (e_int 4 7) (e_int 4 7)) (Bitvec.ones 1);
  check "ult" Rtl.Expr.(ult (e_int 4 3) (e_int 4 12)) (Bitvec.ones 1);
  check "mux" Rtl.Expr.(mux (e_int 1 1) (e_int 4 10) (e_int 4 5)) (Bitvec.of_int ~width:4 10);
  check "red_and" Rtl.Expr.(red_and (e_int 3 7)) (Bitvec.ones 1);
  check "red_xor" Rtl.Expr.(red_xor (e_int 3 0b110)) (Bitvec.zero 1);
  check "concat order" Rtl.Expr.(concat [ e_int 2 0b10; e_int 3 0b001 ])
    (Bitvec.of_binary_string "10001");
  check "select hit"
    (Rtl.Expr.select (e_int 2 2) [ (1, e_int 4 11); (2, e_int 4 12) ] ~default:(e_int 4 0))
    (Bitvec.of_int ~width:4 12);
  check "select default"
    (Rtl.Expr.select (e_int 2 3) [ (1, e_int 4 11); (2, e_int 4 12) ] ~default:(e_int 4 9))
    (Bitvec.of_int ~width:4 9);
  check "zero_extend" (Rtl.Expr.zero_extend (e_int 3 5) 6) (Bitvec.of_int ~width:6 5)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_builder_validation () =
  expect_invalid "duplicate name" (fun () ->
      let b = Rtl.Builder.create "dup" in
      let x = Rtl.Builder.input b "x" 1 in
      ignore (Rtl.Builder.net b "x" x);
      Rtl.Builder.finish b);
  expect_invalid "combinational cycle" (fun () ->
      let b = Rtl.Builder.create "cyc" in
      let x = Rtl.Builder.input b "x" 1 in
      let a_sig = Rtl.Signal.make "a" 1 in
      let bb = Rtl.Builder.net b "bb" (Rtl.Expr.and_ x (Rtl.Expr.signal a_sig)) in
      ignore (Rtl.Builder.net b "a" bb);
      Rtl.Builder.finish b);
  expect_invalid "dangling register" (fun () ->
      let b = Rtl.Builder.create "dang" in
      ignore (Rtl.Builder.reg_declare b "r" ~width:2);
      Rtl.Builder.finish b);
  expect_invalid "undefined reference" (fun () ->
      let b = Rtl.Builder.create "undef" in
      Rtl.Builder.output b "y" (Rtl.Expr.signal (Rtl.Signal.make "ghost" 2));
      Rtl.Builder.finish b);
  expect_invalid "wrong-width reference" (fun () ->
      let b = Rtl.Builder.create "ww" in
      let _x = Rtl.Builder.input b "x" 3 in
      Rtl.Builder.output b "y" (Rtl.Expr.signal (Rtl.Signal.make "x" 2));
      Rtl.Builder.finish b)

let counter_design ~reset ~with_enable =
  let b = Rtl.Builder.create "counter" in
  let en = if with_enable then Some (Rtl.Builder.input b "en" 1) else None in
  let q = Rtl.Builder.reg_declare b "q" ~width:4 ~reset in
  Rtl.Builder.reg_connect b ?enable:en "q" (Rtl.Expr.add q (e_int 4 1));
  Rtl.Builder.output b "count" q;
  Rtl.Builder.finish b

let test_eval_registers () =
  let d = counter_design ~reset:Rtl.Design.Sync_reset ~with_enable:false in
  let st = Rtl.Eval.create d in
  Alcotest.check bv "initial" (Bitvec.zero 4) (Rtl.Eval.peek st "count");
  Rtl.Eval.step st;
  Rtl.Eval.step st;
  Alcotest.check bv "after 2" (Bitvec.of_int ~width:4 2) (Rtl.Eval.peek st "count");
  Rtl.Eval.reset st;
  Alcotest.check bv "after reset" (Bitvec.zero 4) (Rtl.Eval.peek st "count")

let test_eval_enable () =
  let d = counter_design ~reset:Rtl.Design.Sync_reset ~with_enable:true in
  let st = Rtl.Eval.create d in
  Rtl.Eval.set_input st "en" (Bitvec.zero 1);
  Rtl.Eval.step st;
  Alcotest.check bv "held" (Bitvec.zero 4) (Rtl.Eval.peek st "count");
  Rtl.Eval.set_input st "en" (Bitvec.ones 1);
  Rtl.Eval.step st;
  Alcotest.check bv "stepped" (Bitvec.of_int ~width:4 1) (Rtl.Eval.peek st "count")

let test_table_oob () =
  let b = Rtl.Builder.create "t" in
  let addr = Rtl.Builder.input b "addr" 2 in
  Rtl.Builder.rom b "mem" ~width:4
    (Array.of_list (List.map (Bitvec.of_int ~width:4) [ 1; 2; 3 ]));
  Rtl.Builder.output b "data" (Rtl.Builder.read_table b "mem" addr);
  let d = Rtl.Builder.finish b in
  let st = Rtl.Eval.create d in
  Rtl.Eval.set_input st "addr" (Bitvec.of_int ~width:2 2);
  Alcotest.check bv "in range" (Bitvec.of_int ~width:4 3) (Rtl.Eval.peek st "data");
  Rtl.Eval.set_input st "addr" (Bitvec.of_int ~width:2 3);
  Alcotest.check bv "out of range reads zero" (Bitvec.zero 4)
    (Rtl.Eval.peek st "data")

let test_unbound_config () =
  let b = Rtl.Builder.create "cfg" in
  let addr = Rtl.Builder.input b "addr" 2 in
  Rtl.Builder.config_table b "mem" ~width:4 ~depth:4;
  Rtl.Builder.output b "data" (Rtl.Builder.read_table b "mem" addr);
  let d = Rtl.Builder.finish b in
  let st = Rtl.Eval.create d in
  expect_invalid "unbound config read" (fun () -> Rtl.Eval.peek st "data");
  let st2 =
    Rtl.Eval.create ~config:[ ("mem", Array.init 4 (Bitvec.of_int ~width:4)) ] d
  in
  Rtl.Eval.set_input st2 "addr" (Bitvec.of_int ~width:2 2);
  Alcotest.check bv "bound config" (Bitvec.of_int ~width:4 2)
    (Rtl.Eval.peek st2 "data")

(* The name-keyed interpreter [Rtl.Eval] replaced, kept as its oracle: every
   peek rebuilds the environment of inputs, registers and nets. *)
module Oracle = struct
  module Smap = Map.Make (String)

  type state = {
    d : Rtl.Design.t;
    ordered_nets : (Rtl.Signal.t * Rtl.Expr.t) list;
    tables : (string, Bitvec.t array) Hashtbl.t;
    mutable inputs : Bitvec.t Smap.t;
    mutable regs : Bitvec.t Smap.t;
    mutable rst : bool;
  }

  let create ?(config = []) (d : Rtl.Design.t) =
    Rtl.Design.validate d;
    let tables = Hashtbl.create 8 in
    List.iter
      (fun (t : Rtl.Design.table) ->
        match t.storage with
        | Rtl.Design.Rom contents -> Hashtbl.replace tables t.tname contents
        | Rtl.Design.Config ->
          Option.iter (Hashtbl.replace tables t.tname)
            (List.assoc_opt t.tname config))
      d.tables;
    let inputs =
      List.fold_left
        (fun m (s : Rtl.Signal.t) -> Smap.add s.name (Bitvec.zero s.width) m)
        Smap.empty d.inputs
    in
    let regs =
      List.fold_left
        (fun m (r : Rtl.Design.reg) -> Smap.add r.q.name r.init m)
        Smap.empty d.regs
    in
    { d; ordered_nets = Rtl.Design.net_order d; tables; inputs; regs;
      rst = false }

  let set_input st name v = st.inputs <- Smap.add name v st.inputs
  let peek_reg st name = Smap.find name st.regs
  let poke_reg st name v = st.regs <- Smap.add name v st.regs

  let read_table st name addr =
    match Hashtbl.find_opt st.tables name with
    | None -> invalid_arg ("Eval: reading unbound configuration table " ^ name)
    | Some contents ->
      let t = Rtl.Design.find_table st.d name in
      let idx = Bitvec.to_int addr in
      if idx < Array.length contents then contents.(idx)
      else Bitvec.zero t.twidth

  let eval_in_env st env e =
    let lookup (s : Rtl.Signal.t) =
      match Smap.find_opt s.name env with
      | Some v -> v
      | None -> invalid_arg ("Eval: use of undriven signal " ^ s.name)
    in
    Rtl.Expr.eval lookup (read_table st) e

  let comb_env st =
    let env = ref st.inputs in
    Smap.iter (fun k v -> env := Smap.add k v !env) st.regs;
    List.iter
      (fun ((s : Rtl.Signal.t), e) ->
        env := Smap.add s.name (eval_in_env st !env e) !env)
      st.ordered_nets;
    !env

  let peek st name =
    let env = comb_env st in
    match Smap.find_opt name env with
    | Some v -> v
    | None ->
      (match
         List.find_opt
           (fun ((s : Rtl.Signal.t), _) -> s.name = name)
           st.d.outputs
       with
       | Some (_, e) -> eval_in_env st env e
       | None -> invalid_arg ("Eval.peek: unknown signal " ^ name))

  let step st =
    let env = comb_env st in
    let next (r : Rtl.Design.reg) =
      let old = Smap.find r.q.name st.regs in
      if st.rst && r.reset <> Rtl.Design.No_reset then r.init
      else begin
        let enabled =
          match r.enable with
          | None -> true
          | Some en -> Bitvec.reduce_or (eval_in_env st env en)
        in
        if enabled then eval_in_env st env r.d else old
      end
    in
    let updates = List.map (fun (r : Rtl.Design.reg) -> (r.q.name, next r)) st.d.regs in
    st.regs <- List.fold_left (fun m (k, v) -> Smap.add k v m) st.regs updates

  let reset st =
    st.rst <- true;
    step st;
    st.rst <- false
end

let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Drive [Rtl.Eval] and the oracle through the same run and return the
   first divergence. Each cycle peeks every input, register, net and output
   three times: right after the clock edge, after random inputs, and after
   a random register poke. A reset replaces the edge halfway. *)
let differential ?(config = []) ~cycles rng (d : Rtl.Design.t) =
  let st = Rtl.Eval.create ~config d and o = Oracle.create ~config d in
  let names =
    List.map (fun (s : Rtl.Signal.t) -> s.name) d.inputs
    @ List.map (fun ((s : Rtl.Signal.t), _) -> s.name) (d.nets @ d.outputs)
    @ List.map (fun (r : Rtl.Design.reg) -> r.q.name) d.regs
  in
  let same what a b =
    if a = b then None
    else
      let show = function
        | Ok v -> Bitvec.to_binary_string v
        | Error m -> "raised " ^ m
      in
      Some (Printf.sprintf "%s: eval %s, oracle %s" what (show a) (show b))
  in
  let peek_all what =
    List.find_map
      (fun n ->
        same
          (Printf.sprintf "%s, peek %s" what n)
          (attempt (fun () -> Rtl.Eval.peek st n))
          (attempt (fun () -> Oracle.peek o n)))
      names
  in
  let set_inputs () =
    List.iter
      (fun (s : Rtl.Signal.t) ->
        let v = Workload.Rng.bitvec rng ~width:s.width in
        Rtl.Eval.set_input st s.name v;
        Oracle.set_input o s.name v)
      d.inputs
  in
  let poke () =
    match d.regs with
    | [] -> None
    | regs ->
      let r = Workload.Rng.pick rng regs in
      let v = Workload.Rng.bitvec rng ~width:r.q.width in
      Rtl.Eval.poke_reg st r.q.name v;
      Oracle.poke_reg o r.q.name v;
      same ("peek_reg " ^ r.q.name)
        (Ok (Rtl.Eval.peek_reg st r.q.name))
        (Ok (Oracle.peek_reg o r.q.name))
  in
  let edge cycle =
    let reset = cycle = cycles / 2 in
    let eval_edge, oracle_edge =
      if reset then (Rtl.Eval.reset, Oracle.reset)
      else (Rtl.Eval.step, Oracle.step)
    in
    same
      (Printf.sprintf "cycle %d %s" cycle (if reset then "reset" else "step"))
      (attempt (fun () -> eval_edge st; Bitvec.zero 0))
      (attempt (fun () -> oracle_edge o; Bitvec.zero 0))
  in
  let rec go cycle =
    if cycle = cycles then None
    else
      let at what = Printf.sprintf "cycle %d %s" cycle what in
      let checks =
        [ (fun () -> peek_all (at "after the edge"));
          (fun () -> set_inputs (); peek_all (at "after inputs"));
          poke;
          (fun () -> peek_all (at "after the poke"));
          (fun () -> edge cycle) ]
      in
      match List.find_map (fun f -> f ()) checks with
      | Some _ as diff -> diff
      | None -> go (cycle + 1)
  in
  go 0

let check_differential name r =
  Option.iter (fun diff -> Alcotest.failf "%s: %s" name diff) r

let prop_eval_matches_oracle =
  Prop.test ~iters:150 "eval matches oracle on random designs" (Prop.int 100_000)
    (fun seed ->
      let rng = Workload.Rng.make seed in
      differential ~cycles:12 rng (Workload.Rand_design.generate ~seed) = None)

let test_eval_oracle_pctrl () =
  let spec = Experiments.Fault_cmp.spec_of Experiments.Fault_cmp.Flexible in
  check_differential "flexible pctrl"
    (differential ~config:spec.config ~cycles:16 (Workload.Rng.make 1)
       spec.design)

(* A read of an unbound configuration table raises on every peek that
   evaluates it: a cycle that failed halfway is never cached. *)
let test_unbound_config_every_peek () =
  let b = Rtl.Builder.create "cfg_mux" in
  let sel = Rtl.Builder.input b "sel" 1 in
  let addr = Rtl.Builder.input b "addr" 2 in
  Rtl.Builder.config_table b "mem" ~width:4 ~depth:4;
  let data =
    Rtl.Builder.net b "data"
      (Rtl.Expr.mux sel (Rtl.Builder.read_table b "mem" addr) (e_int 4 5))
  in
  Rtl.Builder.output b "y" data;
  let d = Rtl.Builder.finish b in
  let st = Rtl.Eval.create d and o = Oracle.create d in
  let peek name =
    ( attempt (fun () -> Rtl.Eval.peek st name),
      attempt (fun () -> Oracle.peek o name) )
  in
  let set name v =
    Rtl.Eval.set_input st name v;
    Oracle.set_input o name v
  in
  let expect what (got, want) =
    Alcotest.(check (result bv string)) what want got
  in
  expect "unselected read" (peek "y");
  set "sel" (Bitvec.ones 1);
  let unbound = Error "Eval: reading unbound configuration table mem" in
  List.iter
    (fun name ->
      let got, want = peek name in
      Alcotest.(check (result bv string)) ("oracle raises " ^ name) unbound want;
      expect ("first peek " ^ name) (got, want);
      expect ("second peek " ^ name) (peek name))
    [ "y"; "sel" ];
  set "sel" (Bitvec.zero 1);
  expect "deselected again" (peek "y")

let test_annotation_validation () =
  let b = Rtl.Builder.create "an" in
  let _x = Rtl.Builder.input b "x" 3 in
  Rtl.Builder.output b "y" (e_int 1 0);
  Rtl.Builder.annotate b (Rtl.Annot.one_hot "x" ~width:3);
  ignore (Rtl.Builder.finish b);
  expect_invalid "wrong-width annotation" (fun () ->
      let b = Rtl.Builder.create "an2" in
      let _x = Rtl.Builder.input b "x" 3 in
      Rtl.Builder.output b "y" (e_int 1 0);
      Rtl.Builder.annotate b (Rtl.Annot.one_hot "x" ~width:4);
      Rtl.Builder.finish b)

let test_verilog_smoke () =
  let d = counter_design ~reset:Rtl.Design.Async_reset ~with_enable:true in
  let text = Rtl.Verilog.emit d in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (contains text fragment))
    [ "module counter"; "always_ff"; "posedge rst"; "endmodule" ]

let test_compose () =
  let sub = counter_design ~reset:Rtl.Design.Sync_reset ~with_enable:true in
  let b = Rtl.Builder.create "parent" in
  let en = Rtl.Builder.input b "en" 1 in
  let u0 = Rtl.Compose.instantiate b ~name:"u0" sub ~inputs:[ ("en", en) ] in
  let u1 =
    Rtl.Compose.instantiate b ~name:"u1" sub
      ~inputs:[ ("en", Rtl.Expr.not_ en) ]
  in
  Rtl.Builder.output b "sum" (Rtl.Expr.add (u0 "count") (u1 "count"));
  let d = Rtl.Builder.finish b in
  let st = Rtl.Eval.create d in
  Rtl.Eval.set_input st "en" (Bitvec.ones 1);
  Rtl.Eval.step st;
  Rtl.Eval.step st;
  Alcotest.check bv "sum" (Bitvec.of_int ~width:4 2) (Rtl.Eval.peek st "sum");
  Alcotest.check bv "u0 register" (Bitvec.of_int ~width:4 2) (Rtl.Eval.peek st "u0_q");
  Alcotest.check bv "u1 register" (Bitvec.zero 4) (Rtl.Eval.peek st "u1_q");
  expect_invalid "missing binding" (fun () ->
      let b = Rtl.Builder.create "p2" in
      let accessor = Rtl.Compose.instantiate b ~name:"u" sub ~inputs:[] in
      ignore (accessor "count");
      Rtl.Builder.finish b)

let test_design_helpers () =
  let d = counter_design ~reset:Rtl.Design.No_reset ~with_enable:false in
  Alcotest.(check int) "config bits" 0 (Rtl.Design.config_bit_count d);
  let r = Rtl.Design.find_reg d "q" in
  Alcotest.(check bool) "reset kind" true (r.Rtl.Design.reset = Rtl.Design.No_reset);
  Alcotest.(check bool) "stats mentions name" true
    (contains (Rtl.Design.stats d) "counter")

let () =
  Alcotest.run "rtl"
    [
      ( "expr",
        [
          Alcotest.test_case "widths" `Quick test_expr_widths;
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
        ] );
      ( "design",
        [
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "registers" `Quick test_eval_registers;
          Alcotest.test_case "enables" `Quick test_eval_enable;
          Alcotest.test_case "table out of range" `Quick test_table_oob;
          Alcotest.test_case "config binding" `Quick test_unbound_config;
          Alcotest.test_case "unbound config every peek" `Quick
            test_unbound_config_every_peek;
          Alcotest.test_case "annotations" `Quick test_annotation_validation;
          Alcotest.test_case "verilog smoke" `Quick test_verilog_smoke;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "design helpers" `Quick test_design_helpers;
        ] );
      ( "oracle",
        [
          prop_eval_matches_oracle;
          Alcotest.test_case "flexible pctrl" `Quick test_eval_oracle_pctrl;
        ] );
    ]
