(** The µCPU instruction set and its golden-model interpreter.

    A minimal 8-bit accumulator machine in the lineage the paper cites for
    microprogrammed control (System/360, VAX): 3-bit opcode, 5-bit operand
    address, 32 bytes of program store and 32 bytes of data memory.

    {v
      LDI k  (acc <- k)   ADD a   (acc += mem[a])    JMP a
      LDA a               SUB a   (acc -= mem[a])    JNZ a  (if acc != 0)
      STA a               HLT
    v}

    [LDI 0] doubles as a no-op at reset (the instruction register clears to
    zero). *)

type instruction =
  | Ldi of int
  | Lda of int
  | Sta of int
  | Add of int
  | Sub of int
  | Jmp of int
  | Jnz of int
  | Hlt

val opcode : instruction -> int

val encode : instruction -> Bitvec.t
(** 8 bits: opcode in [7:5], operand in [4:0]. *)

val decode : Bitvec.t -> instruction

val assemble : instruction list -> Bitvec.t array
(** Padded with [Ldi 0] to the full 32-entry program store.
    @raise Invalid_argument if longer than 32 or an operand is out of
    range. *)

(** {1 Golden model} *)

type state = {
  pc : int;
  acc : int;
  mem : int array;  (** 32 bytes *)
  halted : bool;
}

val initial : state

val interp_step : program:Bitvec.t array -> state -> state
(** One *instruction* (not one clock). A halted state is a fixpoint. *)

val run : ?max_steps:int -> program:Bitvec.t array -> unit -> state
(** Interpret until [Hlt] or [max_steps] (default 10_000) instructions. *)

val fib_program : int -> Bitvec.t array
(** Compute fib(n) (n ≥ 1, modulo 256) into the accumulator — the standard
    demo workload. *)
