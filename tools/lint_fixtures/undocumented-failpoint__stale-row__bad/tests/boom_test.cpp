void T() { Arm("core.boom"); }
