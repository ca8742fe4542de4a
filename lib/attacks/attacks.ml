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

let extended ~mode = [ Cgi_ping.case; Plugin_host.case_for mode ]
let multiproc = [ Cgi_shell.case; Tar_pipeline.case ]
let sidechannel = [ Aes_table.case; Aes_table.case_ct ]

let findable ?backend mode =
  all @ [ Cgi_ping.case; Plugin_host.case_for ?backend mode ] @ multiproc @ sidechannel

let find ?backend ?(mode = Shift_compiler.Mode.shift_word) name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun (c : Attack_case.t) ->
      let n = String.lowercase_ascii c.program_name in
      String.length n >= String.length lower && String.sub n 0 (String.length lower) = lower)
    (findable ?backend mode)
