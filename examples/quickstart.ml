(* Quickstart: the paper's core loop in ~40 lines.

   1. Describe a controller's combinational behaviour as a table.
   2. Generate the *flexible* implementation (a configuration memory) and
      the *direct* implementation (sum-of-products RTL).
   3. Partially evaluate the flexible one by binding the table contents.
   4. Synthesize both and compare: the areas come out (nearly) the same,
      which is the paper's headline result.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A 5-input, 4-output decode function with some structure. *)
  let tt =
    Core.Truth_table.of_fun ~name:"decode" ~width:4 ~depth:32 (fun a ->
        Bitvec.of_int ~width:4 ((a * 7 / 3) land 15))
  in
  Printf.printf "table: depth %d, width 4, %d address bits\n"
    (Core.Truth_table.depth tt)
    (Core.Truth_table.addr_bits tt);

  (* The flexible design still has its configuration memory... *)
  let flexible = Core.Truth_table.to_flexible_rtl tt in
  Printf.printf "flexible: %s\n" (Rtl.Design.stats flexible);

  (* ...which partial evaluation folds away. *)
  let bound =
    Synth.Partial_eval.bind_tables flexible
      [ Core.Truth_table.config_binding tt ]
  in
  let direct = Core.Truth_table.to_sop_rtl tt in

  let lib = Cells.Library.vt90 in
  let area d = Synth.Map.total (Synth.Flow.compile lib d).Synth.Flow.report in
  let a_flexible = area flexible in
  let a_bound = area bound in
  let a_direct = area direct in
  Printf.printf "area, flexible (with config memory): %8.1f um^2\n" a_flexible;
  Printf.printf "area, partially evaluated:           %8.1f um^2\n" a_bound;
  Printf.printf "area, direct sum-of-products:        %8.1f um^2\n" a_direct;
  Printf.printf "partial evaluation recovered %.1f%% of the flexibility cost\n"
    (100.0 *. (a_flexible -. a_bound) /. (a_flexible -. a_direct +. 1e-9));

  (* Both specialized designs behave identically, cycle for cycle. *)
  match
    Synth.Equiv.run (Synth.Equiv.Sim { seed = 1 })
      (Synth.Flow.compile lib bound).Synth.Flow.aig
      (Synth.Flow.compile lib direct).Synth.Flow.aig
  with
  | Synth.Equiv.Refuted c ->
    Printf.printf "MISMATCH at cycle %d on %s\n" c.first.cycle c.first.output;
    exit 1
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ ->
    print_endline "equivalence check: specialized == direct"
