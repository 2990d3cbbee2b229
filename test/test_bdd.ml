(* BDD semantics are checked against a brute-force evaluator over random
   boolean expression trees. *)

type expr =
  | Var of int
  | Const of bool
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Ite of expr * expr * expr

let rec eval_expr env = function
  | Var i -> env i
  | Const b -> b
  | Not a -> not (eval_expr env a)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b
  | Ite (c, a, b) -> if eval_expr env c then eval_expr env a else eval_expr env b

let rec to_bdd m = function
  | Var i -> Bdd.var m i
  | Const true -> Bdd.one m
  | Const false -> Bdd.zero m
  | Not a -> Bdd.not_ (to_bdd m a)
  | And (a, b) -> Bdd.and_ (to_bdd m a) (to_bdd m b)
  | Or (a, b) -> Bdd.or_ (to_bdd m a) (to_bdd m b)
  | Xor (a, b) -> Bdd.xor (to_bdd m a) (to_bdd m b)
  | Ite (c, a, b) -> Bdd.ite (to_bdd m c) (to_bdd m a) (to_bdd m b)

let nvars = 6

(* Recursive expressions over [nvars] variables. The size budget halves at
   each level; it is below 10 half the time and sometimes up to 10000. *)
let gen_expr rng =
  let int = Workload.Rng.int rng in
  let rec gen size =
    if size <= 1 then
      if Workload.Rng.bool rng then Var (int nvars)
      else Const (Workload.Rng.bool rng)
    else
      let sub () = gen (size / 2) in
      match int 5 with
      | 0 -> Not (sub ())
      | 1 -> And (sub (), sub ())
      | 2 -> Or (sub (), sub ())
      | 3 -> Xor (sub (), sub ())
      | _ -> Ite (sub (), sub (), sub ())
  in
  let p = int 100 in
  gen
    (int
       (if p < 50 then 10 else if p < 75 then 100 else if p < 95 then 1000
        else 10_000))

(* A failing expression shrinks to one of its operands. *)
let shrink_expr = function
  | Var _ | Const _ -> []
  | Not a -> [ a ]
  | And (a, b) | Or (a, b) | Xor (a, b) -> [ a; b ]
  | Ite (c, a, b) -> [ c; a; b ]

let rec print_expr = function
  | Var i -> Printf.sprintf "x%d" i
  | Const b -> string_of_bool b
  | Not a -> "~" ^ print_expr a
  | And (a, b) -> Printf.sprintf "(%s & %s)" (print_expr a) (print_expr b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (print_expr a) (print_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (print_expr a) (print_expr b)
  | Ite (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (print_expr c) (print_expr a) (print_expr b)

let arb_expr = Prop.make ~show:print_expr ~shrink:shrink_expr gen_expr

let all_envs f =
  Seq.for_all
    (fun v -> f (fun i -> Bitvec.get v i))
    (Bitvec.all_values nvars)

let prop name f = Prop.test ~iters:200 name arb_expr f

let props =
  [
    prop "bdd matches evaluator" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        all_envs (fun env -> Bdd.eval b env = eval_expr env e));
    prop "double negation" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        Bdd.equal b (Bdd.not_ (Bdd.not_ b)));
    prop "hash-consing canonicity" (fun e ->
        (* Build twice (in different shapes) and compare physically. *)
        let m = Bdd.make_man () in
        let b1 = to_bdd m e in
        let b2 = Bdd.not_ (to_bdd m (Not e)) in
        Bdd.equal b1 b2 && Bdd.uid b1 = Bdd.uid b2);
    prop "cofactor shannon" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        let v = Bdd.var m 0 in
        let expanded =
          Bdd.or_
            (Bdd.and_ v (Bdd.cofactor b 0 true))
            (Bdd.and_ (Bdd.not_ v) (Bdd.cofactor b 0 false))
        in
        Bdd.equal b expanded);
    prop "exists = or of cofactors" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        Bdd.equal (Bdd.exists [ 1 ] b)
          (Bdd.or_ (Bdd.cofactor b 1 true) (Bdd.cofactor b 1 false)));
    prop "forall = and of cofactors" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        Bdd.equal (Bdd.forall [ 1 ] b)
          (Bdd.and_ (Bdd.cofactor b 1 true) (Bdd.cofactor b 1 false)));
    prop "sat_count matches enumeration" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        let count =
          Seq.fold_left
            (fun acc v -> if Bdd.eval b (Bitvec.get v) then acc + 1 else acc)
            0 (Bitvec.all_values nvars)
        in
        int_of_float (Bdd.sat_count b ~nvars) = count);
    prop "constrain agrees on care set" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        let c = Bdd.or_ (Bdd.var m 0) (Bdd.var m 1) in
        let r = Bdd.constrain b c in
        all_envs (fun env ->
            (not (Bdd.eval c env)) || Bdd.eval r env = Bdd.eval b env));
    prop "constrain canonical for equal-on-care" (fun e ->
        let m = Bdd.make_man () in
        let b = to_bdd m e in
        let c = Bdd.var m 2 in
        (* b and (b restricted-to-c arbitrary elsewhere): modify b off-care. *)
        let b' = Bdd.ite (Bdd.not_ c) (Bdd.var m 3) b in
        let b'' = Bdd.ite c b (Bdd.var m 4) in
        Bdd.equal (Bdd.constrain b' c) (Bdd.constrain b'' c));
  ]

(* Truth-table oracle (Prop harness, seeded). A 16-bit integer is the
   complete truth table of a 4-variable function (bit [v] gives the value on
   assignment [v]); boolean operations on BDDs must agree with bitwise
   operations on tables, for every table. *)

let tt_nvars = 4

let tt_mask = 0xffff

let bdd_of_tt m tt =
  Bdd.of_fun m ~nvars:tt_nvars (fun v -> (tt lsr Bitvec.to_int v) land 1 = 1)

let tt_of_bdd b =
  Seq.fold_left
    (fun acc v ->
      if Bdd.eval b (Bitvec.get v) then acc lor (1 lsl Bitvec.to_int v) else acc)
    0
    (Bitvec.all_values tt_nvars)

let arb_tt = Prop.int (tt_mask + 1)

let tt_binop name op table_op =
  Prop.test name (Prop.pair arb_tt arb_tt) (fun (x, y) ->
      let m = Bdd.make_man () in
      tt_of_bdd (op (bdd_of_tt m x) (bdd_of_tt m y)) = table_op x y land tt_mask)

let tt_props =
  [
    Prop.test "of_fun/eval table roundtrip" arb_tt (fun tt ->
        let m = Bdd.make_man () in
        tt_of_bdd (bdd_of_tt m tt) = tt);
    tt_binop "and matches table" Bdd.and_ ( land );
    tt_binop "or matches table" Bdd.or_ ( lor );
    tt_binop "xor matches table" Bdd.xor ( lxor );
    tt_binop "imp matches table" Bdd.imp (fun x y -> lnot x lor y);
    tt_binop "iff matches table" Bdd.iff (fun x y -> lnot (x lxor y));
    Prop.test "not matches table" arb_tt (fun tt ->
        let m = Bdd.make_man () in
        tt_of_bdd (Bdd.not_ (bdd_of_tt m tt)) = lnot tt land tt_mask);
    Prop.test "ite matches table" (Prop.triple arb_tt arb_tt arb_tt)
      (fun (c, a, b) ->
        let m = Bdd.make_man () in
        tt_of_bdd (Bdd.ite (bdd_of_tt m c) (bdd_of_tt m a) (bdd_of_tt m b))
        = (c land a) lor (lnot c land b) land tt_mask);
    Prop.test "equal iff same table" (Prop.pair arb_tt arb_tt) (fun (x, y) ->
        let m = Bdd.make_man () in
        Bdd.equal (bdd_of_tt m x) (bdd_of_tt m y) = (x = y));
    Prop.test "sat_count is table popcount" arb_tt (fun tt ->
        let m = Bdd.make_man () in
        let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
        int_of_float (Bdd.sat_count (bdd_of_tt m tt) ~nvars:tt_nvars) = pop tt);
  ]

(* Relational product: [and_exists vars f g] against quantifying [f ∧ g]
   after the fact, and against an independent Shannon expansion, on random
   pairs over 2 to 12 variables. The quantified set is empty, every
   variable, or a random subset. *)

let gen_over rng n =
  let rec go depth =
    if depth = 0 || Workload.Rng.int rng 5 = 0 then Var (Workload.Rng.int rng n)
    else
      match Workload.Rng.int rng 4 with
      | 0 -> Not (go (depth - 1))
      | 1 -> And (go (depth - 1), go (depth - 1))
      | 2 -> Or (go (depth - 1), go (depth - 1))
      | _ -> Xor (go (depth - 1), go (depth - 1))
  in
  go 6

let arb_product =
  Prop.make
    ~show:(fun (n, f, g, vars) ->
      Printf.sprintf "%d vars, f = %s, g = %s, quantify [%s]" n (print_expr f)
        (print_expr g)
        (String.concat "; " (List.map string_of_int vars)))
    (fun rng ->
      let n = 2 + Workload.Rng.int rng 11 in
      let all = List.init n Fun.id in
      let vars =
        match Workload.Rng.int rng 4 with
        | 0 -> []
        | 1 -> all
        | _ -> List.filter (fun _ -> Workload.Rng.bool rng) all
      in
      (n, gen_over rng n, gen_over rng n, vars))

let product_props =
  [
    Prop.test "and_exists = exists of and" arb_product (fun (_, f, g, vars) ->
        let m = Bdd.make_man () in
        let f = to_bdd m f and g = to_bdd m g in
        let r = Bdd.and_exists vars f g in
        let shannon =
          List.fold_left
            (fun acc v -> Bdd.or_ (Bdd.cofactor acc v false) (Bdd.cofactor acc v true))
            (Bdd.and_ f g) vars
        in
        Bdd.equal r (Bdd.exists vars (Bdd.and_ f g)) && Bdd.equal r shannon);
  ]

let test_basics () =
  let m = Bdd.make_man () in
  Alcotest.(check bool) "zero is zero" true (Bdd.is_zero (Bdd.zero m));
  Alcotest.(check bool) "one is one" true (Bdd.is_one (Bdd.one m));
  Alcotest.(check bool) "var not const" false (Bdd.is_const (Bdd.var m 0));
  Alcotest.(check int) "top_var" 3 (Bdd.top_var (Bdd.var m 3));
  let f = Bdd.and_ (Bdd.var m 0) (Bdd.nvar m 2) in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Bdd.support f)

let test_minterms () =
  let m = Bdd.make_man () in
  let vs = [ Bitvec.of_int ~width:3 1; Bitvec.of_int ~width:3 6 ] in
  let f = Bdd.of_minterms m ~nvars:3 vs in
  let back = List.of_seq (Bdd.sat_seq f ~nvars:3) in
  Alcotest.(check (list int)) "roundtrip" [ 1; 6 ] (List.map Bitvec.to_int back)

let test_rename () =
  let m = Bdd.make_man () in
  let f = Bdd.and_ (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.rename f (fun v -> v + 5) in
  Alcotest.(check (list int)) "renamed support" [ 5; 6 ] (Bdd.support g);
  let h = Bdd.and_ (Bdd.var m 5) (Bdd.var m 6) in
  Alcotest.(check bool) "same function" true (Bdd.equal g h)

let test_manager_isolation () =
  let m1 = Bdd.make_man () and m2 = Bdd.make_man () in
  Alcotest.check_raises "cross-manager rejected"
    (Invalid_argument "Bdd: manager mismatch") (fun () ->
      ignore (Bdd.and_ (Bdd.var m1 0) (Bdd.var m2 0)))

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "minterms roundtrip" `Quick test_minterms;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "manager isolation" `Quick test_manager_isolation;
        ] );
      ("properties", props);
      ("truth tables", tt_props);
      ("product", product_props);
    ]
