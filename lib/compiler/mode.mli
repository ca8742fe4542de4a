(** Instrumentation modes of the SHIFT compiler. *)

type enhancements = {
  set_clear_nat : bool;
      (** §6.3 enhancement 1: [setnat]/[clrnat] instructions replace the
          artificial NaT-generation and spill/fill NaT-clearing
          sequences. *)
  nat_aware_cmp : bool;
      (** §6.3 enhancement 2: a compare that works on NaT operands
          replaces the compare-relaxation code. *)
}

type t =
  | Uninstrumented
      (** plain compilation, the baseline of every slowdown ratio *)
  | Shift of { granularity : Shift_mem.Granularity.t; enh : enhancements }
      (** the paper's system: NaT-based register tracking plus
          instrumented loads/stores maintaining the memory bitmap *)
  | Software_dbt of { granularity : Shift_mem.Granularity.t }
      (** LIFT-like all-software baseline: register tags live in a
          shadow table in memory, every instruction is instrumented *)

(** Set/clear NaT only. *)
val enh1 : enhancements

val enh_both : enhancements

(** Byte granularity, base ISA. *)
val shift_byte : t

(** Word granularity, base ISA. *)
val shift_word : t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse a mode name: the CLI spellings ([none], [word], [byte],
    [word+setclr], [byte+both], [dbt], ...) and the canonical
    {!to_string} forms are both accepted, so
    [of_string (to_string m) = Ok m] for every mode.  The error string
    names the accepted spellings.  This is the single mode parser the
    CLI and the serve wire protocol share. *)
