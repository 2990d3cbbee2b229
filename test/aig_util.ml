(* AIG helpers shared by several suites: an output mutant and an exact
   structural digest for the golden fingerprints of test_synth and
   test_sat, and the equivalence check of a flow result. *)

(* A copy of [g] with primary output [k] complemented: a known
   disequivalent partner for any graph with more than [k] outputs. *)
let invert_po k g =
  let u = Aig.create () in
  let xl =
    Aig.copy_into g ~into:u ~leaf:(fun n ->
        match Aig.kind g n with
        | Aig.Pi -> Aig.pi u (Aig.pi_name g n)
        | _ ->
          let name, init, reset, is_config = Aig.latch_info g n in
          Aig.latch u name ~init ~reset ~is_config)
  in
  List.iter
    (fun n ->
      Aig.set_next u (xl (Aig.lit_of_node n false)) (xl (Aig.latch_next g n)))
    (Aig.latches g);
  List.iteri
    (fun i (name, l) -> Aig.po u name (if i = k then Aig.not_ (xl l) else xl l))
    (Aig.pos g);
  u

let invert_first_po g = invert_po 0 g

(* Node count plus an MD5 over every node, latch and output literal in
   index order: equal digests mean node-for-node identical graphs. *)
let structural_digest g =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  for n = 0 to Aig.num_nodes g - 1 do
    match Aig.kind g n with
    | Aig.Const -> add "c;"
    | Aig.Pi -> add "i%s;" (Aig.pi_name g n)
    | Aig.Latch ->
      let name, init, reset, is_config = Aig.latch_info g n in
      add "l%s,%b,%s,%b,%d;" name init
        (match reset with
         | Rtl.Design.No_reset -> "n"
         | Rtl.Design.Sync_reset -> "s"
         | Rtl.Design.Async_reset -> "a")
        is_config (Aig.latch_next g n :> int)
    | Aig.And ->
      let f0, f1 = Aig.fanins g n in
      add "a%d,%d;" (f0 :> int) (f1 :> int)
  done;
  List.iter
    (fun (name, (l : Aig.lit)) -> add "o%s=%d;" name (l :> int))
    (Aig.pos g);
  Printf.sprintf "ands=%d md5=%s" (Aig.num_ands g)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A flow result against the freshly lowered netlist of its design:
   random simulation, then the complete SAT engine. Neither may refute. *)
let check_flow_result name design (r : Synth.Flow.result) =
  let low = (Synth.Lower.run design).Synth.Lower.aig in
  List.iter
    (fun (engine, verdict) ->
      match verdict with
      | Synth.Equiv.Refuted c ->
        Alcotest.failf "%s: %s refuted the flow: %s" name engine
          (Synth.Equiv.mismatch_to_string c.first)
      | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ())
    [
      ( "simulation",
        Synth.Equiv.run (Synth.Equiv.Sim { seed = 4242 }) low r.aig );
      ("SAT", Synth.Equiv.run (Synth.Equiv.Sat { frames = 16 }) low r.aig);
    ]
