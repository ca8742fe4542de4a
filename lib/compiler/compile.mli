(** Top-level compiler driver: validate, lay out data, generate code,
    instrument, link, assemble. *)

exception Error of string

(** {1 Options} *)

type nat_source_strategy = Instrument.nat_source_strategy = Per_function | Per_use

type pointer_policy = Instrument.pointer_policy =
  | Fault_on_tainted_pointer
  | Propagate_pointer_taint

type options = Instrument.options = {
  relax_all_compares : bool;
  skip_save_restore : bool;
  nat_source_strategy : nat_source_strategy;
  pointer_policy : pointer_policy;
}
(** The instrumentation's settings beyond the mode; see
    {!Instrument.options}. *)

val default_options : options
(** Analysis on, save/restore skipped, one NaT source per function,
    tainted pointers fault. *)

(** {1 Libraries}

    The paper links one pre-instrumented glibc into every protected
    program.  A {!library} is that step here: a set of functions
    (normally {!Shift_runtime.Runtime.program}) compiled and instrumented
    once for one mode, options, marker setting and [taint_returns], then
    linked into any number of images. *)

type library

val library :
  ?mode:Mode.t ->
  ?options:options ->
  ?taint_returns:string list ->
  ?keep_taint_markers:bool ->
  Ir.program ->
  library
(** Compile every function of the program (no [main] needed) into
    instrumented units.  Only the [taint_returns] entries the program
    itself calls matter to its code; the rest are dropped.
    @raise Error on validation or code-generation failure. *)

(** {1 Compiling} *)

val compile :
  ?mode:Mode.t ->
  ?options:options ->
  ?taint_returns:string list ->
  ?keep_taint_markers:bool ->
  ?lib:library ->
  Ir.program ->
  Image.t
(** Compile an application and link it with [lib] (default: no library
    functions).  The program must define [main], or take it from the
    library.  The image is the one a compile of
    [Ir.merge lib_program prog] without a library produces, down to its
    [Marshal] bytes: units come out as [_start], the library's, then
    the application's; the data segment holds the library's globals,
    the application's, then the library's string literals.  The
    library's instructions are shared with every image it is linked
    into, except each [movi] of a data address, which points at the
    image's own copy of the address.

    [options] (default {!default_options}) selects the instrumentation
    variant.  [taint_returns] implements the paper's §3.3.1 taint source
    (4), "return values of specific functions", driven by the
    configuration file: every call to a listed function gets its result
    register tagged.  In the SHIFT modes the tag is the NaT bit; the
    software-DBT mode updates its shadow table; uninstrumented code
    ignores it.  [keep_taint_markers] is {!Instrument.instrument}'s.

    Global names that {!Layout.is_reserved} reports are the compiler's
    and are refused.

    @raise Error on validation or code-generation failure.
    @raise Invalid_argument if [lib] was built with another mode,
    options, marker setting or relevant [taint_returns]. *)
