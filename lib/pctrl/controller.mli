(** The protocol controller (PCtrl) top level — the paper's Fig. 9 case
    study, scaled to this repository's substrate.

    Structure (cf. paper Fig. 4): a microcoded Dispatch unit (sequencer with
    configuration memory and a dispatch table), a registered one-hot
    pipe-select (decoded from the source/destination tile index — the
    post-flop one-hot signal of Fig. 7), four data-pipe FSMs with
    table-driven (configuration-memory) logic, and per-pipe line buffers
    with word steering — the functional datapath state that survives partial
    evaluation.

    Ports: inputs [op] (3), [src] (2), [dst] (2), [rdy] (1), [data_in] (64);
    outputs [data_out] (64), [mem_en] (4), [mem_we] (4), [resp] (1),
    [busy] (1), [done_any] (1).

    The four experimental build points of Fig. 9:
    - [full_design] — flexible; all tables are configuration memories.
    - [auto_design mode] — partial evaluation only: tables bound to the
      mode's microcode, default flow.
    - [manual_design mode] — additionally carries the generator's
      reachability knowledge (µPC reachable set, field value sets, one-hot
      pipe select, per-mode reachable pipe states) as annotations; compile
      with [honor_generator_annots = true]. *)

type mode = Dispatch.mode = Cached | Uncached

val full_design : unit -> Rtl.Design.t

val bindings : mode -> (string * Bitvec.t array) list
(** Configuration contents (sequencer microcode, dispatch table, pipe FSM
    tables) with composed table names. *)

val auto_design : mode -> Rtl.Design.t

val certification_pair :
  ?bindings:(string * Bitvec.t array) list -> mode -> Aig.t * Aig.t
(** The two sides of the partial-evaluation certificate. Side A is the
    lowered {!full_design} specialized at the AIG level: [bindings]
    (default {!bindings}[ mode]) replace its configuration latches through
    {!Synth.Partial_eval.bind_aig_tables}. Side B is the lowered
    [auto_design mode], specialized before lowering. Equivalence certifies
    that RTL partial evaluation preserved the programmed behaviour; a
    mutated [bindings] gives a pair that must be refuted. *)

val manual_design : mode -> Rtl.Design.t

val beat_width : int
