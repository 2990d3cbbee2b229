(** Random combinational tables — the Fig. 5 workload.

    The paper sweeps tables of depth d ∈ {2, 8, 16, 32, 64, 256, 1024} and
    width w ∈ {2, 4, 16, 32, 64} with random contents. *)

val generate : seed:int -> depth:int -> width:int -> Core.Truth_table.t

val paper_grid : (int * int) list
(** All (depth, width) pairs of the paper's sweep. *)
