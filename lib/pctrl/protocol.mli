(** Protocol vocabulary of the Smart-Memories-like controller.

    Opcodes arrive from the processors; pipe commands go from the Dispatch
    unit's microcode to the four data pipes. *)

type opcode =
  | Nop
  | Read_line   (** fetch a cache line from the source tile *)
  | Write_line  (** write the line buffer to the destination tile *)
  | Copy_line   (** cache-to-cache transfer: read from src, write to dst *)
  | Evict       (** write back and acknowledge *)
  | Unc_read    (** uncached single-beat read *)
  | Unc_write   (** uncached single-beat write *)
  | Sync        (** fence: respond immediately *)

val opcode_bits : int
val encode_opcode : opcode -> int
val decode_opcode : int -> opcode

(** Pipe commands (3 bits). *)

val cmd_bits : int

val cmd_idle : int

val cmd_read : int
(** Single-beat read. *)

val cmd_write : int
(** Single-beat write. *)

val cmd_line_read : int
(** Streaming line read. *)

val cmd_line_write : int
(** Streaming line write. *)
