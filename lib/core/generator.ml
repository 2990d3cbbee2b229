let fsm_manual_annotation fsm =
  Rtl.Annot.fsm_state_vector "state" (Fsm_ir.reachable_codes fsm)

let program_manual_annotations (p : Microcode.program) =
  let upc =
    Rtl.Annot.value_set "upc"
      (List.map
         (Bitvec.of_int ~width:(Microcode.upc_bits p))
         (Microcode.reachable_addrs p))
  in
  let field (f : Microcode.field) =
    Rtl.Annot.value_set (f.fname ^ "_r")
      (List.map
         (Bitvec.of_int ~width:f.fwidth)
         (Microcode.field_value_set p f.fname))
  in
  upc :: List.map field p.format
