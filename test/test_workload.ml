let test_rng_determinism () =
  let a = Workload.Rng.make 7 and b = Workload.Rng.make 7 in
  let xs t = List.init 20 (fun _ -> Workload.Rng.int t 1000) in
  Alcotest.(check (list int)) "same seed same stream" (xs a) (xs b);
  let c = Workload.Rng.make 8 in
  Alcotest.(check bool) "different seed different stream" true (xs a <> xs c)

let test_rng_split_independent () =
  let parent = Workload.Rng.make 7 in
  let left = Workload.Rng.split parent "left" in
  let right = Workload.Rng.split parent "right" in
  let xs t = List.init 20 (fun _ -> Workload.Rng.int t 1000) in
  Alcotest.(check bool) "children differ" true (xs left <> xs right);
  (* Splitting again with the same name reproduces the stream. *)
  let left2 = Workload.Rng.split parent "left" in
  let left3 = Workload.Rng.split parent "left" in
  Alcotest.(check (list int)) "split reproducible"
    (List.init 20 (fun _ -> Workload.Rng.int left2 1000))
    (List.init 20 (fun _ -> Workload.Rng.int left3 1000))

let test_rng_helpers () =
  let t = Workload.Rng.make 3 in
  let v = Workload.Rng.bitvec t ~width:65 in
  Alcotest.(check int) "bitvec width" 65 (Bitvec.width v);
  let sub = Workload.Rng.subset t ~size:3 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "subset size" 3 (List.length sub);
  Alcotest.(check int) "subset distinct" 3
    (List.length (List.sort_uniq compare sub));
  Alcotest.(check bool) "pick member" true
    (List.mem (Workload.Rng.pick t [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "negative subset size" []
    (Workload.Rng.subset t ~size:(-1) [ 1; 2; 3 ])

(* The list implementation [Rng.subset] replaced, kept as its oracle: pick
   uniformly from the pool, then drop every copy of the pick. *)
let subset_oracle t ~size l =
  let rec go acc pool k =
    if k = 0 || pool = [] then List.rev acc
    else begin
      let x = Workload.Rng.pick t pool in
      go (x :: acc) (List.filter (fun y -> y <> x) pool) (k - 1)
    end
  in
  go [] l (min size (List.length l))

(* Lists of 0-40 ints over 1-60 values (duplicates are common), a size from
   0 to two past the length, and the seed both implementations draw with. *)
let arb_subset_case =
  let show (l, size, seed) =
    Printf.sprintf "size %d, seed %d, [%s]" size seed
      (String.concat "; " (List.map string_of_int l))
  in
  Prop.make ~show
    ~shrink:(fun (l, size, seed) ->
      List.mapi (fun i _ -> (List.filteri (fun j _ -> j <> i) l, size, seed)) l
      @ if size > 0 then [ (l, size - 1, seed) ] else [])
    (fun rng ->
      let n = Workload.Rng.int rng 41 in
      let values = 1 + Workload.Rng.int rng 60 in
      let l = List.init n (fun _ -> 1 + Workload.Rng.int rng values) in
      (l, Workload.Rng.int rng (n + 3), Workload.Rng.int rng 1_000_000))

let prop_subset_matches_oracle =
  Prop.test ~iters:2000 "subset matches list oracle" arb_subset_case
    (fun (l, size, seed) ->
      Workload.Rng.subset (Workload.Rng.make seed) ~size l
      = subset_oracle (Workload.Rng.make seed) ~size l)

let test_table_generator () =
  let tt = Workload.Rand_table.generate ~seed:1 ~depth:24 ~width:7 in
  Alcotest.(check int) "depth" 24 (Core.Truth_table.depth tt);
  Alcotest.(check int) "width" 7 (Bitvec.width (Core.Truth_table.eval tt 0));
  let tt2 = Workload.Rand_table.generate ~seed:1 ~depth:24 ~width:7 in
  Alcotest.(check bool) "deterministic" true
    (List.for_all
       (fun a ->
         Bitvec.equal (Core.Truth_table.eval tt a) (Core.Truth_table.eval tt2 a))
       (List.init 24 Fun.id));
  Alcotest.(check int) "paper grid size" 35
    (List.length Workload.Rand_table.paper_grid)

let test_fsm_generator () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:5 ~num_inputs:8 ~num_outputs:4 ~num_states:9
  in
  Alcotest.(check int) "states" 9 (Core.Fsm_ir.num_states fsm);
  (* Realistic controllers: every state branches on at most 2 inputs. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d support small" s)
        true
        (List.length (Core.Fsm_ir.input_support fsm s) <= 2))
    (List.init 9 Fun.id);
  Alcotest.(check int) "paper grid size" 30
    (List.length Workload.Rand_fsm.paper_grid);
  let fsm2 =
    Workload.Rand_fsm.generate ~seed:5 ~num_inputs:8 ~num_outputs:4 ~num_states:9
  in
  let trace f = Core.Fsm_ir.simulate f [ 0; 255; 17; 3; 99; 1 ] in
  Alcotest.(check bool) "deterministic" true
    (List.for_all2 Bitvec.equal (trace fsm) (trace fsm2))

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "helpers" `Quick test_rng_helpers;
          prop_subset_matches_oracle;
        ] );
      ( "generators",
        [
          Alcotest.test_case "tables" `Quick test_table_generator;
          Alcotest.test_case "fsms" `Quick test_fsm_generator;
        ] );
    ]
