void F() { CFSF_FAILPOINT("core.boom"); }
