(** Data pipe controller (one per two-processor tile).

    A small FSM driving a tile's memory port: request, transfer (single beat
    or streaming line), final beat, done. Streaming states are only entered
    by line commands, so an uncached configuration — which never issues line
    commands — provably cannot reach them. That is the state headroom the
    paper's *Manual* optimization reclaims.

    Input word (4 bits): bits 2..0 = pipe command ({!Protocol.cmd_read} …),
    bit 3 = memory-ready. Moore outputs (6 bits): see the [out_*] indices. *)

val fsm : Core.Fsm_ir.t

val input_assignment : cmd:int -> rdy:bool -> int

val out_mem_en : int
val out_mem_we : int
val out_cnt_en : int
val out_buf_we : int
val out_done : int
val out_busy : int

val streaming_states : string list
(** Names of the states only line commands reach. *)

val reachable_states_for_cmds : int list -> int list
(** Indices of the states reachable, in increasing order, when the
    microcode only ever issues the given command values and idle (ready
    may do anything). The Manual controller's pipe-state annotations are
    these states' codes. *)
