(** Ablation studies of the synthesis flow's design choices (beyond the
    paper, indexed in DESIGN.md).

    - {!cone_cap}: how large must the collapse window be before table-based
      and direct implementations converge (sweeps the window cap)?
    - {!twolevel}: exact Quine–McCluskey vs the Espresso-lite heuristic on
      random functions — cover cost, with each call timed by a
      [twolevel.qm] or [twolevel.espresso] span.
    - {!annot_cap}: the annotation width cap swept across the Fig. 8 design
      at a fixed bus width, reproducing the n ≤ 32 cliff as a flow
      parameter.
    - {!encodings}: state-encoding sweep (binary / gray / one-hot) on the
      Fig. 6 workload — the generator-side answer to "s ∈ {3, 17} aren't
      efficiently coded in binary".

    Each ablation prints its table to the given formatter. Those that
    compile take the engine and submit one batch: a failed compile prints
    [FAIL] and is listed by {!Engine.failures}. *)

val cone_cap : Format.formatter -> Engine.t -> unit
val twolevel : Format.formatter -> unit
val annot_cap : Format.formatter -> Engine.t -> unit
val encodings : Format.formatter -> Engine.t -> unit

val library_richness : Format.formatter -> Engine.t -> unit
(** A5: the same optimized netlists mapped with and without the 3-input
    cells (NAND3/NOR3/AOI21/OAI21) — quantifying the "discrete standard
    cell library" effect the paper blames for residual scatter. *)

val microcode_style : Format.formatter -> Engine.t -> unit
(** A6: horizontal vs vertical microcode stores on the PCtrl dispatch
    programs — config bits, flexible area, and the (converging) partially
    evaluated areas. *)
