(** Fault sites: where a fault model perturbs a design.

    Three models, matching what the paper's controllers put at risk:
    - {!Table_bit}: a single-bit upset in a configuration memory — the
      FSM-table / microcode storage a flexible controller keeps writable
      after fabrication. Persistent for the whole run (the bit stays
      flipped until reprogrammed).
    - {!Reg_bit}: a single-event upset of one register bit at one clock
      cycle — transient state corruption; the register logic may overwrite
      it on the next edge.
    - {!Stuck_at}: a gate output stuck at 0/1 in the synthesized netlist
      (AIG node) — the classic manufacturing-defect model.

    {!No_fault} is the control: a campaign of [No_fault] sites must
    classify 100% masked, which is the fault simulator's self-test. *)

type t =
  | No_fault
  | Table_bit of { table : string; entry : int; bit : int }
  | Reg_bit of { reg : string; bit : int; cycle : int }
  | Stuck_at of { node : int; value : bool }

val key : t -> string
(** Stable, unique identifier within a campaign, the tail of its store key
    (e.g. ["table:pc.ucode:3:7"], ["reg:state:2@14"], ["stuck:41:1"]). *)

val table_sites :
  Rtl.Design.t -> config:(string * Bitvec.t array) list -> t list
(** One site per bit of every [Config] table bound in [config]. ROM tables
    contribute nothing: after synthesis their contents are fixed logic, not
    storage — which is exactly the flexibility/vulnerability trade the
    fault campaign measures. *)

val reg_sites : Rtl.Design.t -> cycles:int -> rng:Workload.Rng.t -> t list
(** One site per bit of every register (configuration registers included),
    each with an injection cycle drawn uniformly from [[0, cycles)] via
    [rng] — exhaustive in space, sampled in time. *)

val stuck_sites : Aig.t -> t list
(** Both polarities for every AND node of the netlist. *)

val sample : Workload.Rng.t -> count:int -> t list -> t list
(** [count] distinct sites ([count <= 0] or [>= length] keeps all). *)
