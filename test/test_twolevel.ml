let cube3 mask value = Twolevel.Cube.make ~mask ~value

let test_cube_basics () =
  let c = cube3 0b101 0b001 in
  (* x0=1, x2=0 *)
  Alcotest.(check int) "literals" 2 (Twolevel.Cube.num_literals c);
  Alcotest.(check bool) "covers 001" true (Twolevel.Cube.covers_minterm c 0b001);
  Alcotest.(check bool) "covers 011" true (Twolevel.Cube.covers_minterm c 0b011);
  Alcotest.(check bool) "not 101" false (Twolevel.Cube.covers_minterm c 0b101);
  Alcotest.(check (list int)) "free vars" [ 1 ] (Twolevel.Cube.free_vars ~nvars:3 c);
  Alcotest.(check bool) "top subsumes" true
    (Twolevel.Cube.subsumes Twolevel.Cube.top c);
  Alcotest.(check bool) "self subsumes" true (Twolevel.Cube.subsumes c c);
  Alcotest.(check bool) "specific not subsumes" false
    (Twolevel.Cube.subsumes c Twolevel.Cube.top)

let test_cube_combine () =
  let a = Twolevel.Cube.of_minterm ~nvars:3 0b000 in
  let b = Twolevel.Cube.of_minterm ~nvars:3 0b100 in
  (match Twolevel.Cube.combine a b with
   | Some c ->
     Alcotest.(check int) "merged literals" 2 (Twolevel.Cube.num_literals c);
     Alcotest.(check bool) "covers both" true
       (Twolevel.Cube.covers_minterm c 0 && Twolevel.Cube.covers_minterm c 4)
   | None -> Alcotest.fail "expected merge");
  let c = Twolevel.Cube.of_minterm ~nvars:3 0b011 in
  Alcotest.(check bool) "distance 2 no merge" true
    (Twolevel.Cube.combine a c = None)

(* [minterms] is the counting-and-scatter enumeration, kept as the
   oracle: [iter_minterms] must yield its sequence in order, and
   [exists_minterm] must agree with [Seq.exists] on it. The predicate
   holds on the minterms whose bits under [pred_mask] equal [pred_value],
   so it is false on some cubes and true partway through others. *)
let arb_cube =
  Prop.make
    ~show:(fun (nvars, mask, value, pm, pv) ->
      Printf.sprintf "nvars=%d mask=%x value=%x pred=%x:%x" nvars mask value
        pm pv)
    (fun rng ->
      let nvars = Workload.Rng.int rng 15 in
      let bits () = Workload.Rng.int rng (1 lsl nvars) in
      let mask = bits () in
      let value = bits () in
      let pm = bits () in
      let pv = bits () in
      (nvars, mask, value, pm, pv))

let prop_cube_minterms =
  Prop.test ~iters:300 "minterm iteration" arb_cube
    ~examples:[ (0, 0, 0, 0, 0); (14, 0, 0, 0x2001, 0x2001); (3, 0b100, 0b100, 0, 0) ]
    (fun (nvars, mask, value, pm, pv) ->
      let c = Twolevel.Cube.make ~mask ~value in
      let oracle = Twolevel.Cube.minterms ~nvars c in
      let by_iter = ref [] in
      Twolevel.Cube.iter_minterms ~nvars (fun m -> by_iter := m :: !by_iter) c;
      let p m = m land pm = pv land pm in
      List.rev !by_iter = List.of_seq oracle
      && Twolevel.Cube.exists_minterm ~nvars p c = Seq.exists p oracle)

let random_tf ~nvars ~seed ~dc =
  let rng = Random.State.make [| seed; nvars |] in
  Twolevel.Truthfn.of_fun ~nvars (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 40 then Twolevel.Truthfn.On
      else if dc && r < 55 then Twolevel.Truthfn.Dc
      else Twolevel.Truthfn.Off)

let test_qm_exact_small () =
  (* f = x0 xor x1: needs exactly 2 cubes of 2 literals. *)
  let tf =
    Twolevel.Truthfn.of_fun ~nvars:2 (fun m ->
        if m land 1 <> (m lsr 1) land 1 then Twolevel.Truthfn.On
        else Twolevel.Truthfn.Off)
  in
  let cover = Twolevel.Qm.minimize tf in
  Alcotest.(check int) "cubes" 2 (Twolevel.Cover.num_cubes cover);
  Alcotest.(check int) "literals" 4 (Twolevel.Cover.literals cover);
  Alcotest.(check bool) "agrees" true (Twolevel.Cover.agrees cover tf)

let test_qm_dc_exploited () =
  (* ON = {0}, DC = {1,2,3}: a single empty cube (constant true) suffices. *)
  let tf = Twolevel.Truthfn.create ~nvars:2 Twolevel.Truthfn.Dc in
  Twolevel.Truthfn.set tf 0 Twolevel.Truthfn.On;
  let cover = Twolevel.Qm.minimize tf in
  Alcotest.(check int) "one cube" 1 (Twolevel.Cover.num_cubes cover);
  Alcotest.(check int) "no literals" 0 (Twolevel.Cover.literals cover)

let test_espresso_phases () =
  let tf = random_tf ~nvars:6 ~seed:5 ~dc:true in
  let initial = (Twolevel.Cover.of_truthfn tf).Twolevel.Cover.cubes in
  let expanded = Twolevel.Espresso.expand tf initial in
  Alcotest.(check bool) "expand valid" true (Twolevel.Truthfn.cover_agrees tf expanded);
  Alcotest.(check bool) "expand no bigger" true
    (List.length expanded <= List.length initial);
  let irr = Twolevel.Espresso.irredundant tf expanded in
  Alcotest.(check bool) "irredundant valid" true (Twolevel.Truthfn.cover_agrees tf irr);
  (* Every remaining cube is needed. *)
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) irr in
      Alcotest.(check bool)
        (Printf.sprintf "cube %d essential" i)
        false
        (Twolevel.Truthfn.cover_agrees tf without))
    irr;
  (* REDUCE shrinks each cube inside itself, keeps every ON-minterm that
     only one cube covered, and still covers the ones cubes shared. *)
  let reduced = Twolevel.Espresso.reduce tf irr in
  Alcotest.(check bool) "reduce shrinks" true
    (List.for_all
       (fun r -> List.exists (fun c -> Twolevel.Cube.subsumes c r) irr)
       reduced);
  List.iter
    (fun m ->
      let covering =
        List.filter (fun c -> Twolevel.Cube.covers_minterm c m) irr
      in
      if List.length covering = 1 then
        Alcotest.(check bool)
          (Printf.sprintf "unique minterm %d kept" m)
          true
          (List.exists (fun r -> Twolevel.Cube.covers_minterm r m) reduced))
    (Twolevel.Truthfn.on_set tf);
  Alcotest.(check bool) "reduce keeps the cover" true
    (Twolevel.Truthfn.cover_agrees tf reduced)

let test_cover_subsumed () =
  let nvars = 3 in
  let c1 = Twolevel.Cube.of_minterm ~nvars 0 in
  let c2 = cube3 0b011 0b000 in
  (* c2 subsumes c1 *)
  let cover = Twolevel.Cover.make ~nvars [ c1; c2 ] in
  let cleaned = Twolevel.Cover.remove_subsumed cover in
  Alcotest.(check int) "one left" 1 (Twolevel.Cover.num_cubes cleaned)

(* (nvars, seed, dc): a random function of [nvars] variables, with or
   without don't-cares. *)
let arb_tf ~min_vars ~max_vars =
  Prop.make
    ~show:(fun (n, s, dc) -> Printf.sprintf "nvars=%d seed=%d dc=%b" n s dc)
    (fun rng ->
      let nvars = min_vars + Workload.Rng.int rng (max_vars - min_vars + 1) in
      let seed = Workload.Rng.int rng 1001 in
      (nvars, seed, Workload.Rng.bool rng))

let prop_minimizers_agree =
  Prop.test ~iters:80 "qm and espresso both implement the function"
    (arb_tf ~min_vars:2 ~max_vars:7) (fun (nvars, seed, dc) ->
      let tf = random_tf ~nvars ~seed ~dc in
      let qm = Twolevel.Qm.minimize tf in
      let esp = Twolevel.Espresso.minimize tf in
      Twolevel.Cover.agrees qm tf && Twolevel.Cover.agrees esp tf)

(* Up to 12 variables drawn, plus fixed 13- and 14-variable functions:
   collapse windows reach 14 leaves, and REDUCE once lost shared ON
   minterms on most functions that wide. *)
let prop_espresso_not_worse_than_minterms =
  Prop.test ~iters:60 "espresso never worse than canonical cover"
    (arb_tf ~min_vars:2 ~max_vars:12)
    ~examples:[ (13, 1, true); (14, 0, false) ]
    (fun (nvars, seed, dc) ->
      let tf = random_tf ~nvars ~seed ~dc in
      let esp = Twolevel.Espresso.minimize tf in
      Twolevel.Cover.agrees esp tf
      && Twolevel.Cover.num_cubes esp
         <= Twolevel.Cover.num_cubes (Twolevel.Cover.of_truthfn tf))

(* Golden cube lists of Espresso on seeded functions over 2-14
   variables, with and without don't-cares: the minimized cover and one
   EXPAND, IRREDUNDANT and REDUCE phase, each in its order. Collapse
   builds its SOP candidates from these lists, so a kernel change that
   keeps every cover but not its order still shows up here. *)
let espresso_fingerprint () =
  let b = Buffer.create 65536 in
  let row name cubes =
    Buffer.add_string b name;
    List.iter
      (fun (c : Twolevel.Cube.t) -> Printf.bprintf b " %x:%x" c.mask c.value)
      cubes;
    Buffer.add_char b '\n'
  in
  let fn (nvars, dc) =
    let seed = 100 + nvars in
    let tf = random_tf ~nvars ~seed ~dc in
    Printf.bprintf b "nvars=%d seed=%d dc=%b\n" nvars seed dc;
    row "minimize" (Twolevel.Espresso.minimize tf).Twolevel.Cover.cubes;
    let expanded =
      Twolevel.Espresso.expand tf (Twolevel.Cover.of_truthfn tf).cubes
    in
    let irr = Twolevel.Espresso.irredundant tf expanded in
    row "expand" expanded;
    row "irredundant" irr;
    row "reduce" (Twolevel.Espresso.reduce tf irr)
  in
  (* Both don't-care modes up to 12 variables; one each at 13 and 14
     keeps the file small. *)
  List.iter fn
    (List.concat_map (fun n -> [ (n, false); (n, true) ]) (List.init 11 (( + ) 2))
    @ [ (13, true); (14, false) ]);
  Buffer.contents b

let test_espresso_golden () =
  Golden.check "espresso.txt" (espresso_fingerprint ())

let () =
  Alcotest.run "twolevel"
    [
      ( "cube",
        [
          Alcotest.test_case "basics" `Quick test_cube_basics;
          Alcotest.test_case "combine" `Quick test_cube_combine;
          prop_cube_minterms;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "qm exact xor" `Quick test_qm_exact_small;
          Alcotest.test_case "qm exploits dc" `Quick test_qm_dc_exploited;
          Alcotest.test_case "espresso phases" `Quick test_espresso_phases;
          Alcotest.test_case "cover subsumption" `Quick test_cover_subsumed;
        ] );
      ( "properties",
        [ prop_minimizers_agree; prop_espresso_not_worse_than_minterms ] );
      ( "golden",
        [ Alcotest.test_case "espresso covers" `Quick test_espresso_golden ] );
    ]
