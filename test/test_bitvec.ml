let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let check_bv = Alcotest.check bv

let test_construction () =
  check_bv "zero" (Bitvec.of_int ~width:4 0) (Bitvec.zero 4);
  check_bv "ones" (Bitvec.of_int ~width:4 15) (Bitvec.ones 4);
  check_bv "of_bits lsb-first" (Bitvec.of_int ~width:4 0b0011)
    (Bitvec.of_bits [ true; true; false; false ]);
  check_bv "of_binary_string msb-first" (Bitvec.of_int ~width:4 0b1010)
    (Bitvec.of_binary_string "1010");
  check_bv "underscores ignored" (Bitvec.of_binary_string "1010")
    (Bitvec.of_binary_string "10_10");
  check_bv "one_hot" (Bitvec.of_int ~width:5 4) (Bitvec.one_hot ~width:5 2);
  Alcotest.check_raises "negative width"
    (Invalid_argument "Bitvec.zero: negative width") (fun () ->
      ignore (Bitvec.zero (-1)));
  Alcotest.check_raises "bad binary"
    (Invalid_argument "Bitvec.of_binary_string: bad character") (fun () ->
      ignore (Bitvec.of_binary_string "10x1"))

let test_observation () =
  let v = Bitvec.of_binary_string "10110" in
  Alcotest.(check int) "to_int" 0b10110 (Bitvec.to_int v);
  Alcotest.(check int) "width" 5 (Bitvec.width v);
  Alcotest.(check bool) "get 1" true (Bitvec.get v 1);
  Alcotest.(check bool) "get 3" false (Bitvec.get v 3);
  Alcotest.(check int) "popcount" 3 (Bitvec.popcount v);
  Alcotest.(check string) "to_binary_string" "10110" (Bitvec.to_binary_string v);
  Alcotest.(check bool) "reduce_or" true (Bitvec.reduce_or v);
  Alcotest.(check bool) "reduce_and" false (Bitvec.reduce_and v);
  Alcotest.(check bool) "reduce_and ones" true (Bitvec.reduce_and (Bitvec.ones 7));
  Alcotest.(check bool) "reduce_xor" true (Bitvec.reduce_xor v)

let test_wide () =
  (* Crosses the 32-bit limb boundary. *)
  let v = Bitvec.set (Bitvec.zero 100) 77 true in
  Alcotest.(check bool) "bit 77" true (Bitvec.get v 77);
  Alcotest.(check int) "popcount" 1 (Bitvec.popcount v);
  let w = Bitvec.shift_left v 10 in
  Alcotest.(check bool) "shifted" true (Bitvec.get w 87);
  let u = Bitvec.shift_right w 87 in
  Alcotest.(check int) "back to bit 0" 1 (Bitvec.to_int (Bitvec.resize u 60));
  let sum = Bitvec.add (Bitvec.ones 100) (Bitvec.of_int ~width:100 1) in
  Alcotest.(check bool) "wraparound" true (Bitvec.is_zero sum)

let test_structure () =
  let a = Bitvec.of_binary_string "101" in
  let b = Bitvec.of_binary_string "0011" in
  check_bv "concat msb-first" (Bitvec.of_binary_string "1010011")
    (Bitvec.concat [ a; b ]);
  check_bv "slice" (Bitvec.of_binary_string "01")
    (Bitvec.slice (Bitvec.of_binary_string "0011") ~hi:2 ~lo:1);
  check_bv "resize grow" (Bitvec.of_binary_string "000101") (Bitvec.resize a 6);
  check_bv "resize shrink" (Bitvec.of_binary_string "01") (Bitvec.resize a 2)

let test_compare () =
  let a = Bitvec.of_int ~width:8 5 and b = Bitvec.of_int ~width:8 200 in
  Alcotest.(check bool) "ult" true (Bitvec.ult a b);
  Alcotest.(check bool) "not ult" false (Bitvec.ult b a);
  Alcotest.(check bool) "not ult self" false (Bitvec.ult a a);
  Alcotest.(check bool) "compare_value" true (Bitvec.compare_value a b < 0);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitvec.compare_value: width mismatch") (fun () ->
      ignore (Bitvec.compare_value a (Bitvec.zero 4)))

let test_all_values () =
  let vs = List.of_seq (Bitvec.all_values 3) in
  Alcotest.(check int) "count" 8 (List.length vs);
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map Bitvec.to_int vs)

(* Property tests. *)

(* Same-width pairs of width 1-80; shrinking drops the top bit of both. *)
let arb_pair_same_width =
  Prop.make
    ~show:(fun (a, b) -> Bitvec.to_string a ^ ", " ^ Bitvec.to_string b)
    ~shrink:(fun (a, b) ->
      let w = Bitvec.width a in
      if w = 1 then []
      else
        let low v = Bitvec.slice v ~hi:(w - 2) ~lo:0 in
        [ (low a, low b) ])
    (fun rng ->
      let width = 1 + Workload.Rng.int rng 80 in
      let a = Workload.Rng.bitvec rng ~width in
      (a, Workload.Rng.bitvec rng ~width))

let prop name f = Prop.test ~iters:300 name arb_pair_same_width f

let props =
  [
    prop "add commutes" (fun (a, b) ->
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    prop "sub inverts add" (fun (a, b) ->
        Bitvec.equal (Bitvec.sub (Bitvec.add a b) b) a);
    prop "de morgan" (fun (a, b) ->
        Bitvec.equal
          (Bitvec.lognot (Bitvec.logand a b))
          (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)));
    prop "xor self is zero" (fun (a, _) -> Bitvec.is_zero (Bitvec.logxor a a));
    prop "roundtrip binary string" (fun (a, _) ->
        Bitvec.equal a (Bitvec.of_binary_string (Bitvec.to_binary_string a)));
    prop "concat slice roundtrip" (fun (a, b) ->
        let c = Bitvec.concat [ a; b ] in
        Bitvec.equal b (Bitvec.slice c ~hi:(Bitvec.width b - 1) ~lo:0)
        && Bitvec.equal a
             (Bitvec.slice c ~hi:(Bitvec.width c - 1) ~lo:(Bitvec.width b)));
    prop "popcount of and bounded" (fun (a, b) ->
        Bitvec.popcount (Bitvec.logand a b)
        <= min (Bitvec.popcount a) (Bitvec.popcount b));
    prop "ult is strict" (fun (a, b) -> not (Bitvec.ult a b && Bitvec.ult b a));
    prop "succ adds one" (fun (a, _) ->
        Bitvec.equal (Bitvec.succ a)
          (Bitvec.add a (Bitvec.of_int ~width:(Bitvec.width a) 1)));
  ]

(* Model-based properties (Prop harness, seeded: failures print a FUZZ_SEED
   repro command). Widths stay ≤ 29 bits so plain OCaml integers are an
   exact model of the unsigned modular semantics (and value generation
   stays within Random's 2^30 bound). *)

let mask w = (1 lsl w) - 1

let show_model (w, a, b) = Printf.sprintf "w=%d a=%d b=%d" w a b

let arb_model =
  Prop.make ~show:show_model
    ~shrink:(fun (w, a, b) ->
      (if a > 0 then [ (w, 0, b); (w, a / 2, b) ] else [])
      @ (if b > 0 then [ (w, a, 0); (w, a, b / 2) ] else [])
      @ if w > 1 then [ (w - 1, a land mask (w - 1), b land mask (w - 1)) ]
        else [])
    (fun rng ->
      let w = 1 + Workload.Rng.int rng 29 in
      (w, Workload.Rng.int rng (1 lsl w), Workload.Rng.int rng (1 lsl w)))

(* (width, value, hi, lo) with 0 <= lo <= hi < width. *)
let arb_slice =
  Prop.make
    ~show:(fun (w, v, hi, lo) ->
      Printf.sprintf "w=%d v=%d hi=%d lo=%d" w v hi lo)
    (fun rng ->
      let w = 1 + Workload.Rng.int rng 29 in
      let v = Workload.Rng.int rng (1 lsl w) in
      let lo = Workload.Rng.int rng w in
      let hi = lo + Workload.Rng.int rng (w - lo) in
      (w, v, hi, lo))

let rec int_popcount n = if n = 0 then 0 else (n land 1) + int_popcount (n lsr 1)

let binop_model name op model =
  Prop.test name arb_model (fun (w, a, b) ->
      Bitvec.to_int (op (Bitvec.of_int ~width:w a) (Bitvec.of_int ~width:w b))
      = model a b land mask w)

let model_props =
  [
    binop_model "add matches int model" Bitvec.add ( + );
    binop_model "sub matches int model" Bitvec.sub (fun a b ->
        a - b + (1 lsl 30));
    binop_model "logand matches int model" Bitvec.logand ( land );
    binop_model "logor matches int model" Bitvec.logor ( lor );
    binop_model "logxor matches int model" Bitvec.logxor ( lxor );
    Prop.test "lognot matches int model" arb_model (fun (w, a, _) ->
        Bitvec.to_int (Bitvec.lognot (Bitvec.of_int ~width:w a))
        = lnot a land mask w);
    Prop.test "ult matches int order" arb_model (fun (w, a, b) ->
        Bitvec.ult (Bitvec.of_int ~width:w a) (Bitvec.of_int ~width:w b)
        = (a < b));
    Prop.test "popcount matches int model" arb_model (fun (w, a, _) ->
        Bitvec.popcount (Bitvec.of_int ~width:w a) = int_popcount a);
    Prop.test "shifts match int model" arb_model (fun (w, a, b) ->
        let s = b mod w in
        let v = Bitvec.of_int ~width:w a in
        Bitvec.to_int (Bitvec.shift_left v s) = (a lsl s) land mask w
        && Bitvec.to_int (Bitvec.shift_right v s) = a lsr s);
    Prop.test "concat matches int model" arb_model (fun (w, a, b) ->
        let c =
          Bitvec.concat [ Bitvec.of_int ~width:w a; Bitvec.of_int ~width:w b ]
        in
        Bitvec.width c = 2 * w && Bitvec.to_int c = (a lsl w) lor b);
    Prop.test "slice matches int model" arb_slice (fun (w, v, hi, lo) ->
        Bitvec.to_int (Bitvec.slice (Bitvec.of_int ~width:w v) ~hi ~lo)
        = (v lsr lo) land mask (hi - lo + 1));
    Prop.test "resize matches int model" arb_model (fun (w, a, b) ->
        let w' = 1 + (b mod 30) in
        Bitvec.to_int (Bitvec.resize (Bitvec.of_int ~width:w a) w')
        = a land mask w');
  ]

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "observation" `Quick test_observation;
          Alcotest.test_case "wide vectors" `Quick test_wide;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "comparison" `Quick test_compare;
          Alcotest.test_case "all_values" `Quick test_all_values;
        ] );
      ("properties", props);
      ("integer model", model_props);
    ]
