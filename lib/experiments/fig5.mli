(** Figure 5: table-based vs direct (sum-of-products) combinational logic.

    For every (depth, width) point of the paper's sweep and a few seeds,
    generate a random table, synthesize (a) the flexible table-based design
    after partial evaluation and (b) the direct SOP design, and compare
    mapped areas. The paper's claims to reproduce: points hug the equal-area
    line; occasional points fall below it (table-based slightly better),
    more often for larger functions. *)

type row = {
  depth : int;
  width : int;
  seed : int;
  table_area : (float, string) result;
  sop_area : (float, string) result;
      (** [Error message] when that point's compile failed; the sweep keeps
          going and the engine records the failure ({!Engine.failures}). *)
}

val run : ?seeds:int list -> ?grid:(int * int) list -> Engine.t -> row list
(** Compiles every point as one batch through the engine. Defaults: seeds
    [[0; 1; 2]], the paper grid. *)

val quick_grid : (int * int) list
(** A subsampled grid for smoke runs. *)

val print : Format.formatter -> row list -> unit
(** Renders the table plus summary statistics (geomean ratio, spread, how
    many points favour the table-based form). *)
