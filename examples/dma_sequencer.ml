(* A microcoded DMA engine written in the textual micro-assembly, taken
   through: parse -> analyze -> simulate -> generate hardware -> partially
   evaluate -> compare areas.

   Run with: dune exec examples/dma_sequencer.exe *)

let source = {|
# Two-channel DMA sequencer.
# Opcodes: 0 = idle, 1 = copy burst, 2 = fill burst, 3 = drain.
.name dma
.opcode_bits 2
.field rd_en 1
.field wr_en 1
.field chan 2 onehot
.field last 1
.dispatch ops idle copy fill drain

idle:
  ; dispatch ops
copy:
  rd_en=1 chan=0b01 ; next
  rd_en=1 wr_en=1 chan=0b01 ; next
  rd_en=1 wr_en=1 chan=0b01 ; next
  wr_en=1 chan=0b01 last=1 ; jump idle
fill:
  wr_en=1 chan=0b10 ; next
  wr_en=1 chan=0b10 ; next
  wr_en=1 chan=0b10 last=1 ; jump idle
drain:
  rd_en=1 chan=0b01 ; next
  rd_en=1 chan=0b10 last=1 ; jump idle
|}

let () =
  let p = Core.Microasm.parse source in
  Printf.printf "assembled %s: %d uops, %d-bit microcode words\n"
    p.Core.Microcode.pname
    (Core.Microcode.depth p)
    (Core.Microcode.word_width p);
  Printf.printf "reachable addresses: %s\n"
    (String.concat ", "
       (List.map string_of_int (Core.Microcode.reachable_addrs p)));
  List.iter
    (fun (f : Core.Microcode.field) ->
      Printf.printf "field %-6s takes values {%s}\n" f.fname
        (String.concat ", "
           (List.map string_of_int (Core.Microcode.field_value_set p f.fname))))
    p.Core.Microcode.format;

  (* Reference (ISA-level) execution of one copy then one fill. *)
  print_endline "\ntrace of [copy; fill]:";
  let ops = [ 1; 0; 0; 0; 2; 0; 0; 0 ] in
  List.iter
    (fun fields ->
      let v name = List.assoc name fields in
      Printf.printf "  rd=%d wr=%d chan=%02d last=%d\n" (v "rd_en") (v "wr_en")
        (v "chan") (v "last"))
    (Core.Microcode.run p ~ops);

  (* Hardware: flexible sequencer vs its partial evaluation. *)
  let lib = Cells.Library.vt90 in
  let area d = Synth.Map.total (Synth.Flow.compile lib d).Synth.Flow.report in
  let flexible = Core.Microcode.to_rtl p in
  let bound =
    Synth.Partial_eval.bind_tables flexible (Core.Microcode.config_bindings p)
  in
  Printf.printf "\narea flexible (config memory): %7.1f um^2\n" (area flexible);
  Printf.printf "area partially evaluated:      %7.1f um^2\n" (area bound);

  (* The RTL and the ISA semantics agree cycle by cycle. *)
  let st = Rtl.Eval.create bound in
  let agree =
    List.for_all2
      (fun op fields ->
        Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:2 op);
        let ok =
          List.for_all
            (fun (name, v) ->
              Bitvec.to_int (Rtl.Eval.peek st name) = v)
            fields
        in
        Rtl.Eval.step st;
        ok)
      ops (Core.Microcode.run p ~ops)
  in
  Printf.printf "RTL matches ISA semantics: %b\n" agree
