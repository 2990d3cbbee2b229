(** Figure 9: the protocol controller case study.

    Synthesizes the PCtrl at the paper's three optimization levels for two
    memory configurations, reporting combinational and sequential area
    separately:
    - Full: the flexible design (configuration memories intact);
    - Auto: partial evaluation only (tables bound, default flow);
    - Manual: plus the generator's reachability annotations (honoured).

    Claims to reproduce: Auto cuts both area classes roughly in half by
    removing configuration storage and folding access logic; Manual gains
    little in cached mode (nearly every state is needed) but noticeably
    more in uncached mode (streaming states and most microcode become
    unreachable). *)

type level = Full | Auto | Manual

type row = {
  mode : Pctrl.Controller.mode;
  level : level;
  comb : float;
  seq : float;
  power : float;  (** activity-based estimate, arbitrary units *)
}

val mode_name : Pctrl.Controller.mode -> string
(** ["cached"] / ["uncached"]. *)

val level_name : level -> string
(** ["full"] / ["auto"] / ["manual"]. *)

val variants : (Pctrl.Controller.mode * level) list
val variant_name : Pctrl.Controller.mode -> level -> string
val job : Pctrl.Controller.mode -> level -> Engine.job
(** The five compiles ({!variants}: Full, then Auto and Manual per mode),
    each named ["pctrl "] and its {!variant_name}: ["pctrl full"],
    ["pctrl auto cached"], …; Full ignores the mode. *)

val rows : Engine.t -> row list
(** The Full job first, then the rest as one {!Exp_common.netlists}. *)

val run : unit -> row list
(** [rows] on an engine that caches nothing, kept for [perfbench/]. *)

val print : Format.formatter -> row list -> unit
