(** Bit-parallel compiled AIG simulation kernel.

    {!compile} translates a {!Graph.t} once into a flat, topologically
    ordered int-array netlist: the And schedule (fanin literals as plain
    ints), latch next/init, and PI/PO index maps are all resolved at
    compile time, so the per-cycle evaluation path touches nothing but
    int arrays — no [Hashtbl], no lists, no closures.

    Evaluation is 64-way bit-parallel in spirit and [Sys.int_size]-way in
    fact (63 independent pattern lanes per OCaml [int] word on 64-bit
    hosts): bit [k] of every node word is the value of that node under
    pattern lane [k]. One {!step} therefore simulates {!lanes} independent
    stimulus vectors for the cost of one scalar pass of word operations.

    Fault-campaign support: {!add_force} attaches per-lane set/clear masks
    to a node; during evaluation the node's computed word [v] becomes
    [(v lor set) land (lnot clear)], so lane [i] can force node [n_i]
    stuck-at-1 (or 0) while every other lane sees the fault-free value —
    64 fault sites per packed pass. The unforced evaluation loop carries
    no masking overhead.

    The kernel is deterministic and allocation-free per cycle; separate
    {!sim} instances share the compiled netlist and may run concurrently
    on different domains. *)

type t
(** A compiled netlist. Immutable; cheap to share across simulators. *)

val lanes : int
(** Pattern lanes per word = [Sys.int_size] (63 on 64-bit hosts). *)

val all_lanes : int
(** Word with every lane bit set ([-1]). *)

val replicate : bool -> int
(** [replicate b] — [b] broadcast to every lane. *)

val random_word : Random.State.t -> int
(** One packed stimulus word: {!lanes} independent random bits, drawn 30
    at a time from the stdlib generator. *)

val ctz : int -> int
(** Index of the least-significant set bit — recovers the lowest
    mismatching lane from an XOR word. Undefined on [0]. *)

val compile : Graph.t -> t
(** One-shot compilation. Every latch must have its next-state set
    ({!Graph.set_next}); raises [Invalid_argument] otherwise. *)

val num_pis : t -> int
val num_latches : t -> int
val num_pos : t -> int

val pi_index : t -> string -> int option
(** Slot of a primary input by name, in {!Graph.pis} order. *)

val latch_slot : t -> int -> int option
(** Slot of a latch by node id: its position in {!Graph.latches}, the
    index {!set_latch} takes. [None] for any other node. *)

val pi_name : t -> int -> string
val po_name : t -> int -> string
(** PO slot [k] corresponds to the [k]-th entry of {!Graph.pos}. *)

(** {1 Packed sequential simulation} *)

type sim
(** Mutable simulator state: packed node values, latch words, PO words
    and force masks. One sim per concurrent simulation stream. *)

val sim : t -> sim
(** Fresh simulator, already reset (latches at their init words). *)

val reset : sim -> unit
(** Latches back to init (each init bit replicated across lanes). Force
    masks and pending PI words are left untouched. *)

val add_force : sim -> node:int -> set:int -> clear:int -> unit
(** OR the given lane masks into node's force words: lanes in [set] read
    1, lanes in [clear] read 0, other lanes see the computed value.
    Multiple calls accumulate (so one pass can force 63 distinct sites). *)

val clear_forces : sim -> unit

val set_pi : sim -> int -> int -> unit
(** [set_pi s slot word] — packed stimulus for PI [slot] for the next
    {!step}. Values persist across steps until overwritten. *)

val set_latch : sim -> int -> int -> unit
(** [set_latch s slot word] — overwrite the state word of latch [slot]
    (the [slot]-th entry of {!Graph.latches}) for the next {!step}, e.g.
    to program configuration bits after {!reset}. *)

val step : sim -> unit
(** One clock edge: evaluate the And schedule over the current PI words
    and latch state, capture packed PO words, then advance every latch to
    its next-state word. *)

val po : sim -> int -> int
(** Packed word of PO slot [k] as of the last {!step}. *)

val node_value : sim -> int -> int
(** Packed value of an arbitrary node as of the last {!step} — the probe
    [Power] reads for switching activity. *)

val steps : sim -> int
(** Cumulative {!step} count (for metrics). *)

val run : sim -> cycles:int -> input:(int -> int -> bool) -> bool array array
(** [run s ~cycles ~input] replays one scalar stimulus from the sim's
    current state: each cycle, PI slot [i] gets [input cycle i] on every
    lane, then one {!step}. Row [c] holds lane 0 of every PO slot after
    cycle [c]. Force masks apply as in {!step}; no metrics are recorded
    (wrap the call in {!with_metrics} for that). *)

(** {1 Observability} *)

val with_metrics : active_lanes:int -> sim -> (unit -> 'a) -> 'a
(** Run a simulation loop under an [aig.sim] {!Obs.Span}, then account the
    steps it performed to the kernel counters: [aig.sim.patterns] (lanes x
    cycles simulated) and [aig.sim.words_evaluated] (And-gate words); the
    span keeps the time. [active_lanes] is the number of lanes the pass
    drives ({!lanes} when it uses them all) and scales the pattern count.
    Free when observability is disabled. *)
