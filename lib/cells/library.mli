(** Cell libraries and the built-in synthetic 90nm library. *)

type t = { lib_name : string; cells : Cell.t list }

val vt90 : t
(** The library every experiment uses: inverter, 2/3-input NAND/NOR, AND/OR,
    XOR/XNOR, MUX, AOI21/OAI21, and D flops for the three reset styles.
    Areas/delays are synthetic but sized like a TSMC-90 standard-cell
    library, so absolute numbers land in the same decade as the paper's. *)

val find : t -> string -> Cell.t
(** @raise Not_found *)

val flop : t -> Rtl.Design.reset_kind -> Cell.t
(** The flip-flop cell for a reset style. *)
