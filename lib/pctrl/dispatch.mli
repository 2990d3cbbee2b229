(** Dispatch-unit microprograms.

    The Dispatch block of the PCtrl (paper Fig. 4) issues line read / line
    write commands with appropriate timing to the data pipes; the commands
    and timing live in a configuration memory as microcode. Both memory
    configurations share one hardware geometry (same fields, depth and
    dispatch table), so the same flexible design accepts either program.

    Microcode fields:
    - [sel_mode] (2): which pipe-select decode drives this cycle
      (0 = none, 1 = source tile, 2 = destination tile);
    - [cmd] (3): pipe command ({!Protocol.cmd_read} …);
    - [buf_word] (2): line-buffer word steered to/from the datapath;
    - [resp] (1): complete the transaction. *)

type mode = Cached | Uncached

val sel_src : int
val sel_dst : int

val program : mode -> Core.Microcode.program
(** The microprogram for a memory configuration; padded to 96 entries. Both
    modes share [pname = "useq"], so their configuration bindings target the
    same hardware tables. *)

val cmd_values : mode -> int list
(** Pipe-command values the mode's microcode can issue (including idle) —
    feeds the Manual-mode pipe-state reachability argument. *)
