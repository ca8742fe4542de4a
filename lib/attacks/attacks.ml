let all =
  [
    Tar_traversal.case;
    Gzip_traversal.case;
    Qwikiwiki_traversal.case;
    Scry_xss.case;
    Php_stats_xss.case;
    Phpsysinfo_xss.case;
    Phpmyfaq_sqli.case;
    Bftpd_format.case;
  ]

let extended ~mode = [ Cgi_ping.case; Plugin_host.case_for_mode mode ]
let multiproc = [ Cgi_shell.case; Tar_pipeline.case ]
let sidechannel = [ Aes_table.case; Aes_table.case_ct ]

(* built once, so every lookup of a case returns the one value that
   owns its image cache *)
let findable = all @ extended ~mode:Shift_compiler.Mode.shift_word @ multiproc @ sidechannel

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun (c : Attack_case.t) ->
      let n = String.lowercase_ascii c.program_name in
      String.length n >= String.length lower && String.sub n 0 (String.length lower) = lower)
    findable
