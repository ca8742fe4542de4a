type enhancements = { set_clear_nat : bool; nat_aware_cmp : bool }

type t =
  | Uninstrumented
  | Shift of { granularity : Shift_mem.Granularity.t; enh : enhancements }
  | Software_dbt of { granularity : Shift_mem.Granularity.t }

let no_enh = { set_clear_nat = false; nat_aware_cmp = false }
let enh1 = { set_clear_nat = true; nat_aware_cmp = false }
let enh_both = { set_clear_nat = true; nat_aware_cmp = true }

let shift_byte = Shift { granularity = Shift_mem.Granularity.Byte; enh = no_enh }
let shift_word = Shift { granularity = Shift_mem.Granularity.Word; enh = no_enh }

let to_string = function
  | Uninstrumented -> "uninstrumented"
  | Shift { granularity; enh } ->
      Printf.sprintf "shift-%s%s%s"
        (Shift_mem.Granularity.to_string granularity)
        (if enh.set_clear_nat then "+setclr" else "")
        (if enh.nat_aware_cmp then "+tacmp" else "")
  | Software_dbt { granularity } ->
      Printf.sprintf "software-dbt-%s" (Shift_mem.Granularity.to_string granularity)

let pp ppf m = Format.pp_print_string ppf (to_string m)

(* Accepts both the CLI spellings (none, word, byte+setclr, dbt, ...)
   and the canonical [to_string] forms, so every mode round-trips:
   [of_string (to_string m) = Ok m]. *)
let of_string s =
  let err () =
    Error
      (Printf.sprintf
         "unknown mode %S (try none, word, byte, word+setclr, byte+both, dbt)" s)
  in
  match String.split_on_char '+' s with
  | [] -> err ()
  | base :: enhs -> (
      let known = [ "setclr"; "tacmp"; "both" ] in
      if List.exists (fun e -> not (List.mem e known)) enhs then err ()
      else
        let enh =
          {
            set_clear_nat = List.mem "setclr" enhs || List.mem "both" enhs;
            nat_aware_cmp = List.mem "tacmp" enhs || List.mem "both" enhs;
          }
        in
        let shift granularity = Ok (Shift { granularity; enh }) in
        let plain m = if enhs = [] then Ok m else err () in
        match base with
        | "none" | "uninstrumented" -> plain Uninstrumented
        | "dbt" | "software" | "software-dbt-word" ->
            plain (Software_dbt { granularity = Shift_mem.Granularity.Word })
        | "software-dbt-byte" ->
            plain (Software_dbt { granularity = Shift_mem.Granularity.Byte })
        | "word" | "shift-word" -> shift Shift_mem.Granularity.Word
        | "byte" | "shift-byte" -> shift Shift_mem.Granularity.Byte
        | _ -> err ())
