(** The µCPU control store: a microprogram compiled from a high-level spec.

    Control flow per instruction: the dispatch microinstruction indexes the
    dispatch table with the opcode bits of the instruction register; each
    handler asserts its datapath fields for one cycle, then executes the
    fetch microinstruction (load IR, bump PC) and jumps back to dispatch.
    Instructions therefore take two or three clocks.

    The paper's "facilitates patches late in the design cycle" claim is
    demonstrated by {!patched_program}: the same hardware, with SUB's
    handler re-pointed at the ALU's AND function — a pure change of bits. *)

(** Field names (1 bit unless noted). *)

val f_ir_ld : string

val f_pc_inc : string

val f_pc_load : string

val f_pc_cond : string
(** Make [pc_load] conditional on acc ≠ 0. *)

val f_acc_ld : string

val f_acc_op : string
(** 3 bits: 0 load, 1 add, 2 sub, 3 and, 4 load-immediate. *)

val f_mem_we : string

val alu_load : int
val alu_add : int
val alu_sub : int
val alu_and : int
val alu_imm : int

val program : Core.Microcode.program
(** The standard control store. *)

val patched_program : Core.Microcode.program
(** Identical except SUB executes an AND — the late-patch demonstration. *)
