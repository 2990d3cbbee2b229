(** Standard cells.

    A combinational cell computes a boolean function of up to 4 inputs,
    described by a truth-table word (bit [i] of [table] is the output for
    input assignment [i], input 0 being the least significant address bit).
    Sequential cells are D flip-flops distinguished by reset style.

    Areas are in µm², delays in ns — synthetic values in the ballpark of a
    90nm standard-cell library, so reports read like the paper's. *)

type func =
  | Comb of { arity : int; table : int }
  | Flop of Rtl.Design.reset_kind

type t = {
  cname : string;
  func : func;
  area : float;
  delay : float;  (** pin-to-pin for comb cells; clk-to-q for flops *)
}

val make_comb : string -> arity:int -> table:int -> area:float -> delay:float -> t
(** @raise Invalid_argument if arity is outside 1..4 or the table has bits
    beyond [2^2^arity]. *)

val make_flop : string -> reset:Rtl.Design.reset_kind -> area:float -> delay:float -> t

val eval_comb : t -> int -> bool
(** [eval_comb c assignment] — output for the given input assignment.
    @raise Invalid_argument on a flop. *)

val is_flop : t -> bool
