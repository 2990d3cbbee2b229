(* The whole generator stack in one run, answering the paper's closing
   question ("what should the input to the generator be?"):

     high-level controller spec
       -> compiled microprogram         (Core.Ctrl_spec)
       -> micro-assembly listing        (Core.Microasm.print)
       -> sequencer hardware, horizontal and vertical stores
       -> partial evaluation + synthesis
       -> gate-level netlist            (Synth.Netlist)

   Run with: dune exec examples/spec_to_silicon.exe *)

let spec =
  {
    Core.Ctrl_spec.name = "burst";
    fields =
      [
        { Core.Microcode.fname = "req"; fwidth = 1; onehot = false };
        { Core.Microcode.fname = "we"; fwidth = 1; onehot = false };
        { Core.Microcode.fname = "lane"; fwidth = 4; onehot = true };
        { Core.Microcode.fname = "last"; fwidth = 1; onehot = false };
      ];
    opcode_bits = 2;
    handlers =
      [
        (* opcode 1: a 4-beat read burst on lane 1, then a writeback. *)
        ( 1,
          Core.Ctrl_spec.Seq
            [
              Core.Ctrl_spec.Emit [ ("req", 1); ("lane", 0b0001) ];
              Core.Ctrl_spec.Repeat
                (4, Core.Ctrl_spec.Emit [ ("req", 1); ("lane", 0b0001) ]);
              Core.Ctrl_spec.Emit
                [ ("req", 1); ("we", 1); ("lane", 0b0010); ("last", 1) ];
              Core.Ctrl_spec.Done;
            ] );
        (* opcode 2: a short probe. *)
        ( 2,
          Core.Ctrl_spec.Seq
            [
              Core.Ctrl_spec.Emit [ ("req", 1); ("lane", 0b1000); ("last", 1) ];
              Core.Ctrl_spec.Done;
            ] );
      ];
  }

let () =
  let p = Core.Ctrl_spec.compile spec in
  Printf.printf "compiled %d handlers into %d microinstructions (%d distinct words)\n\n"
    (List.length spec.Core.Ctrl_spec.handlers)
    (Core.Microcode.depth p)
    (Core.Microcode.distinct_control_words p);
  print_endline "--- micro-assembly ---";
  print_string (Core.Microasm.print p);

  let lib = Cells.Library.vt90 in
  let area style ~bound =
    let d = Core.Microcode.to_rtl ~style p in
    let d =
      if bound then
        Synth.Partial_eval.bind_tables d (Core.Microcode.config_bindings ~style p)
      else d
    in
    Synth.Map.total (Synth.Flow.compile lib d).Synth.Flow.report
  in
  Printf.printf "\n%-36s %10s\n" "implementation" "area um^2";
  List.iter
    (fun (name, style, bound) ->
      Printf.printf "%-36s %10.1f\n" name (area style ~bound))
    [
      ("horizontal, flexible (unbound)", `Horizontal, false);
      ("vertical, flexible (unbound)", `Vertical, false);
      ("horizontal, partially evaluated", `Horizontal, true);
      ("vertical, partially evaluated", `Vertical, true);
    ];

  (* Gate-level netlist of the specialized horizontal version. *)
  let d =
    Synth.Partial_eval.bind_tables (Core.Microcode.to_rtl p)
      (Core.Microcode.config_bindings p)
  in
  let result = Synth.Flow.compile lib d in
  print_endline "\n--- gate-level netlist (specialized) ---";
  print_string
    (Synth.Netlist.emit lib ~name:"burst_ctrl" result.Synth.Flow.aig
       result.Synth.Flow.instances)
