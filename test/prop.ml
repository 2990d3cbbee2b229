(* The property-testing harness of every suite: seeded generation, a fixed
   iteration budget, fixed regression examples and greedy shrinking. Every
   generated case is a pure function of a printed integer seed, so any
   failure reproduces in one command, and the suite prints the same output
   on every run:

     FUZZ_SEED=<seed> dune exec test/<binary>.exe

   FUZZ_ITERS=<n> overrides every iteration budget (soak or quick runs);
   FUZZ_SEED=<s> runs exactly one iteration on that seed and skips the
   fixed examples. No dependencies beyond Alcotest (reporting) and
   Workload.Rng (generation). *)

type 'a t = {
  gen : Workload.Rng.t -> 'a;
  shrink : 'a -> 'a list;
  show : 'a -> string;
}

let make ?(shrink = fun _ -> []) ~show gen = { gen; shrink; show }

let fixed_seed = Option.bind (Sys.getenv_opt "FUZZ_SEED") int_of_string_opt

let budget default =
  match fixed_seed with
  | Some _ -> 1
  | None ->
    (match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
     | Some n when n > 0 -> n
     | _ -> default)

(* ------------------------------------------------------------ generators *)

let int bound =
  {
    gen = (fun rng -> Workload.Rng.int rng bound);
    (* Toward zero: 0 first (most interesting), then halving. *)
    shrink =
      (fun n ->
        if n = 0 then []
        else if n = 1 then [ 0 ]
        else [ 0; n / 2; n - 1 ]);
    show = string_of_int;
  }

let pair a b =
  {
    gen = (fun rng -> (a.gen rng, b.gen rng));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.shrink x)
        @ List.map (fun y' -> (x, y')) (b.shrink y));
    show = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.show x) (b.show y));
  }

let triple a b c =
  {
    gen = (fun rng -> (a.gen rng, b.gen rng, c.gen rng));
    shrink =
      (fun (x, y, z) ->
        List.map (fun x' -> (x', y, z)) (a.shrink x)
        @ List.map (fun y' -> (x, y', z)) (b.shrink y)
        @ List.map (fun z' -> (x, y, z')) (c.shrink z));
    show =
      (fun (x, y, z) ->
        Printf.sprintf "(%s, %s, %s)" (a.show x) (b.show y) (c.show z));
  }

(* ----------------------------------------------------------------- check *)

let holds prop x = match prop x with b -> b | exception _ -> false

let explain prop x =
  match prop x with
  | true -> "returned true after shrinking (flaky property?)"
  | false -> "returned false"
  | exception e -> "raised " ^ Printexc.to_string e

(* Greedy descent: take the first failing shrink candidate, repeat.
   Bounded so a cyclic shrinker cannot hang the suite. *)
let minimize p prop x0 =
  let rec go fuel x =
    if fuel = 0 then x
    else
      match List.find_opt (fun y -> not (holds prop y)) (p.shrink x) with
      | Some y -> go (fuel - 1) y
      | None -> x
  in
  go 1000 x0

let falsified ~name ~origin p prop x =
  let min_x = minimize p prop x in
  Alcotest.failf
    "%s falsified\n\
    \  %s\n\
    \  counterexample: %s\n\
    \  shrunk to: %s (%s)"
    name origin (p.show x) (p.show min_x) (explain prop min_x)

(* [examples] are fixed regression inputs, checked before the generated
   cases. *)
let check ?(iters = 200) ?(seed = 0) ?(examples = []) ~name p prop =
  if fixed_seed = None then
    List.iteri
      (fun i x ->
        if not (holds prop x) then
          falsified ~name ~origin:(Printf.sprintf "fixed example %d" i) p
            prop x)
      examples;
  let iters = budget iters in
  for i = 0 to iters - 1 do
    let case_seed =
      match fixed_seed with Some s -> s | None -> seed + i
    in
    let x = p.gen (Workload.Rng.make case_seed) in
    if not (holds prop x) then
      falsified ~name
        ~origin:
          (Printf.sprintf
             "seed: %d (iteration %d/%d)\n\
             \  reproduce: FUZZ_SEED=%d dune exec <this test binary>"
             case_seed i iters case_seed)
        p prop x
  done

let test ?iters ?seed ?examples name p prop =
  Alcotest.test_case name `Quick (fun () ->
      check ?iters ?seed ?examples ~name p prop)
