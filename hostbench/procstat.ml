(* CPU time and peak resident memory of a process, read from /proc.

   [/proc/<pid>/stat] gives user and system time in clock ticks;
   USER_HZ is 100 on every Linux ABI, so one tick is 10 ms.
   [/proc/<pid>/status] gives VmHWM, the peak resident set, in kB.  The
   parsers are separate from the reads so they can be tested on fixed
   text. *)

let ticks_per_s = 100.

(* utime + stime, in seconds, from the one line of /proc/<pid>/stat.
   The command name (field 2) is parenthesised and may itself contain
   spaces or parentheses, so fields are counted from the last ')'. *)
let parse_stat_cpu line =
  let close = String.rindex line ')' in
  let rest = String.sub line (close + 2) (String.length line - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime is field 14, stime 15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. ticks_per_s

(* VmHWM in MB from the text of /proc/<pid>/status *)
let parse_status_hwm text =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

let read path =
  In_channel.with_open_bin path In_channel.input_all

let cpu_s pid = parse_stat_cpu (read (Printf.sprintf "/proc/%d/stat" pid))
let peak_rss_mb pid = parse_status_hwm (read (Printf.sprintf "/proc/%d/status" pid))

(* this process's own CPU: getrusage-backed, so finer than ticks *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
